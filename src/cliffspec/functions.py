"""Intrinsic slice functions on double sectors and their certificates.

An intrinsic function is realized by a complex-analytic profile F with the
Schwarz symmetry F(conj z) = conj F(z); its value at x + J y is then
Re F(x + iy) + J Im F(x + iy), identically across slices.  The compatibility
conditions hold by construction and the Cauchy-Riemann equations reduce to
analyticity of the profile.

Decay certificates (alpha, C_alpha) witness |f(s)| <= C |s|^a / (1 + |s|^2a)
on the sector; bounded certificates record a sampled sup norm.  Certificates
carry sample counts when they were fit by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import Paravector, polar_decompose
from .errors import (ArgumentError, CertificationError, CliffSpecError, DomainError,
                     PreconditionError, SchemaError)
from .quadrature import gl_panel_grid, pairwise_sum, trapezoid_grid

DEFAULT_THETA = math.pi / 4
_CERTIFY_SAMPLES = 1000  # radii per ray of the certification sample set


@dataclass(frozen=True)
class DecayCertificate:
    alpha: float
    c_alpha: float
    samples: int = 0


@dataclass(frozen=True)
class BoundedCertificate:
    sup_norm: float
    samples: int = 0


class IntrinsicFunction:
    """Intrinsic slice function given by a vectorized complex profile."""

    __slots__ = ("profile", "theta", "kind", "params", "decay", "bounded")

    def __init__(self, profile, theta, kind="custom", params=None,
                 decay=None, bounded=None):
        if not 0.0 < theta < math.pi / 2:
            raise ArgumentError(f"domain half-angle theta={theta} outside (0, pi/2)")
        self.profile = profile
        self.theta = float(theta)
        self.kind = kind
        self.params = dict(params or {})
        self.decay = decay
        self.bounded = bounded

    def with_decay(self, cert):
        f = IntrinsicFunction(self.profile, self.theta, self.kind, self.params,
                              cert, self.bounded)
        return f

    def with_bounded(self, cert):
        return IntrinsicFunction(self.profile, self.theta, self.kind, self.params,
                                 self.decay, cert)

    def eval_complex(self, z):
        """Apply the profile to complex input without a domain check."""
        return self.profile(np.asarray(z, dtype=complex))

    def __call__(self, s: Paravector) -> Paravector:
        return eval_intrinsic(self, s)

    def __repr__(self):
        return f"IntrinsicFunction(kind={self.kind!r}, theta={self.theta:.6g})"


def eval_intrinsic(f: IntrinsicFunction, s: Paravector) -> Paravector:
    """Value of f at the paravector s; lies in the slice of s.

    Raises DomainError off the open double sector of half-angle f.theta.
    The value at real s is real (the slice component vanishes by symmetry).
    """
    if s.is_zero():
        raise DomainError("0 is outside every double sector")
    phi = s.angle()
    if not (phi < f.theta or phi > math.pi - f.theta):
        raise DomainError(
            f"point with slice angle {phi:.6g} outside double sector of half-angle {f.theta:.6g}"
        )
    y = s.imag_norm()
    w = complex(f.eval_complex(complex(s.s0, y)))
    if y == 0.0:
        return Paravector(w.real, np.zeros(s.n))
    axis = s.svec / y
    return Paravector(w.real, w.imag * axis)


# ---------------------------------------------------------------------------
# built-in profiles

def regularizer(theta=DEFAULT_THETA) -> IntrinsicFunction:
    """The rational function s / (1 + s^2) with its analytic decay certificate."""
    return rational_function([1.0, 0.0], [1.0, 0.0, 1.0], theta=theta).with_decay(
        DecayCertificate(alpha=1.0, c_alpha=1.0 / math.cos(theta))
    )


def e_alpha_family(alpha, theta=DEFAULT_THETA) -> IntrinsicFunction:
    """Regularizer powers s^a / (1+s^2)^a, with (-s)^a on the left half-sector."""
    if not 0.0 < alpha <= 1.0:
        raise ArgumentError(f"alpha={alpha} outside (0, 1]")

    def profile(z):
        z = np.asarray(z, dtype=complex)
        base = np.where(z.real > 0.0, z, -z)
        return base ** alpha / (1.0 + z * z) ** alpha

    cert = DecayCertificate(alpha=float(alpha),
                            c_alpha=2.0 ** (1.0 - alpha) / math.cos(theta) ** alpha)
    return IntrinsicFunction(profile, theta, kind="e_alpha",
                             params={"alpha": float(alpha)}, decay=cert)


def rational_function(num, den, theta=DEFAULT_THETA) -> IntrinsicFunction:
    """Real-coefficient rational profile; coefficients are highest power first."""
    num = [float(c) for c in np.atleast_1d(num)]
    den = [float(c) for c in np.atleast_1d(den)]
    if not any(den):
        raise ArgumentError("denominator is identically zero")

    def profile(z):
        z = np.asarray(z, dtype=complex)
        return np.polyval(num, z) / np.polyval(den, z)

    return IntrinsicFunction(profile, theta, kind="rational",
                             params={"num": num, "den": den})


def constant_function(value, theta=DEFAULT_THETA) -> IntrinsicFunction:
    f = rational_function([float(value)], [1.0], theta=theta)
    return f.with_bounded(BoundedCertificate(sup_norm=abs(float(value))))


def scale_function(f: IntrinsicFunction, t) -> IntrinsicFunction:
    """The intrinsic function s -> f(t s) for real t != 0."""
    t = float(t)
    if t == 0.0:
        raise ArgumentError("scale factor t must be nonzero")
    inner = f.profile

    def profile(z):
        return inner(t * np.asarray(z, dtype=complex))

    decay = None
    if f.decay is not None:
        a = f.decay.alpha
        decay = DecayCertificate(a, f.decay.c_alpha * max(abs(t) ** a, abs(t) ** -a),
                                 f.decay.samples)
    bounded = f.bounded
    return IntrinsicFunction(profile, f.theta, kind="scaled",
                             params={"t": t, "inner": f.params | {"kind": f.kind}},
                             decay=decay, bounded=bounded)


def product_function(*factors) -> IntrinsicFunction:
    """Pointwise product; decay exponents add and constants multiply."""
    if len(factors) < 2:
        raise ArgumentError("product needs at least two factors")
    theta = min(f.theta for f in factors)
    profiles = [f.profile for f in factors]

    def profile(z):
        z = np.asarray(z, dtype=complex)
        out = profiles[0](z)
        for p in profiles[1:]:
            out = out * p(z)
        return out

    # combine certificates: decaying factors contribute (alpha, C); bounded
    # factors multiply the constant; one decaying factor suffices
    alpha = 0.0
    c = 1.0
    have_decay = False
    bounded_all = True
    sup = 1.0
    for f in factors:
        if f.decay is not None:
            alpha += f.decay.alpha
            c *= f.decay.c_alpha
            have_decay = True
        elif f.bounded is not None:
            c *= f.bounded.sup_norm
        else:
            c = None
            break
        if f.bounded is not None:
            sup *= f.bounded.sup_norm
        else:
            bounded_all = False
    decay = DecayCertificate(alpha, c) if (c is not None and have_decay) else None
    bounded = BoundedCertificate(sup) if bounded_all else None
    return IntrinsicFunction(profile, theta, kind="product",
                             params={"factors": [f.params | {"kind": f.kind} for f in factors]},
                             decay=decay, bounded=bounded)


def sum_function(f: IntrinsicFunction, g: IntrinsicFunction) -> IntrinsicFunction:
    pf, pg = f.profile, g.profile

    def profile(z):
        z = np.asarray(z, dtype=complex)
        return pf(z) + pg(z)

    return IntrinsicFunction(profile, min(f.theta, g.theta), kind="sum",
                             params={"terms": [f.params | {"kind": f.kind},
                                               g.params | {"kind": g.kind}]})


# ---------------------------------------------------------------------------
# sampling-based certification

def _sample_points(theta, samples_per_ray, radius_span=(1e-4, 1e4)):
    """Log-spaced radii on the four boundary rays plus interior rays."""
    radii = np.logspace(math.log10(radius_span[0]), math.log10(radius_span[1]),
                        samples_per_ray)
    edge = theta * (1.0 - 1e-9)
    angles = []
    for base in (0.0, math.pi):
        for off in (edge, -edge, theta / 2, -theta / 2, 0.0):
            angles.append(base + off)
    pts = []
    for ang in angles:
        pts.append(radii * np.exp(1j * ang))
    return np.concatenate(pts)


def certify_decay(f: IntrinsicFunction, alpha) -> DecayCertificate:
    """Fit the smallest C_alpha over the sample set for the given alpha.

    The fit must be stable: widening the radius window from [1e-2, 1e2] to
    [1e-4, 1e4] may not inflate the constant by more than a factor 5,
    otherwise there is no decay of that order and CertificationError is raised.
    """
    if alpha <= 0.0:
        raise ArgumentError("decay exponent alpha must be positive")
    z_wide = _sample_points(f.theta, _CERTIFY_SAMPLES)
    z_narrow = _sample_points(f.theta, _CERTIFY_SAMPLES, radius_span=(1e-2, 1e2))

    def fit(z):
        vals = np.abs(f.eval_complex(z))
        r = np.abs(z)
        need = vals * (1.0 + r ** (2 * alpha)) / r ** alpha
        return float(np.max(need))

    c_wide = fit(z_wide)
    c_narrow = fit(z_narrow)
    if not np.isfinite(c_wide) or c_wide > 5.0 * c_narrow:
        raise CertificationError(
            f"no stable decay of order alpha={alpha}: constant grows from "
            f"{c_narrow:.3e} to {c_wide:.3e} as the radius window widens"
        )
    return DecayCertificate(float(alpha), c_wide, samples=z_wide.size)


def certify_bounded(f: IntrinsicFunction) -> BoundedCertificate:
    """Sampled sup norm over the sector sampling set."""
    z = _sample_points(f.theta, _CERTIFY_SAMPLES)
    vals = np.abs(f.eval_complex(z))
    if not np.all(np.isfinite(vals)):
        raise CertificationError("function is non-finite on the sample set")
    return BoundedCertificate(float(np.max(vals)), samples=z.size)


def check_intrinsic(f: IntrinsicFunction, points, h=1e-6):
    """Max relative Cauchy-Riemann residual of the profile at complex points."""
    worst = 0.0
    for z in np.atleast_1d(points):
        z = complex(z)
        fx = (complex(f.eval_complex(z + h)) - complex(f.eval_complex(z - h))) / (2 * h)
        fy = (complex(f.eval_complex(z + 1j * h)) - complex(f.eval_complex(z - 1j * h))) / (2 * h)
        # analyticity: d/dy = i d/dx
        resid = abs(fy - 1j * fx)
        scale = max(abs(fx), abs(fy), 1e-30)
        worst = max(worst, resid / scale)
    return worst


# ---------------------------------------------------------------------------
# parameter-line integrals

def _require_decay(f):
    if f.decay is None:
        raise PreconditionError("operation requires a decay certificate")
    return f.decay


def f0_infty(f: IntrinsicFunction, direction: Paravector | None = None) -> float:
    """The constant given by integrating f(t)/t over the real line.

    Truncation is chosen from the decay certificate so the arctan tail bound
    stays below 1e-9; by slice independence the same value may be computed
    along any unit direction in the sector (``direction``).
    """
    cert = _require_decay(f)
    alpha, c = cert.alpha, max(cert.c_alpha, 1.0)
    U = math.log(4.0 * c / (alpha * 1e-9)) / alpha
    # step at most 0.05 and at least 64 nodes
    u, w = trapezoid_grid(-U, U, max(64, int(math.ceil(2.0 * U / 0.05)) + 1))
    t = np.exp(u)
    if direction is None:
        z = t.astype(complex)
    else:
        r, axis, phi = polar_decompose(direction)
        z = t * np.exp(1j * phi)
    vals = f.eval_complex(z) - f.eval_complex(-z)
    total = pairwise_sum(w * vals)
    return float(np.real(total))


def f_ab_tail_bound(cert: DecayCertificate, a, b, scale=1.0):
    """Arctan bound for |f_ab - f_0inf| at |s| = scale."""
    alpha, c = cert.alpha, cert.c_alpha
    return (2.0 * c / alpha) * (
        math.atan((a * scale) ** alpha) + math.pi / 2 - math.atan((b * scale) ** alpha)
    )


def f_ab_function(f: IntrinsicFunction, a, b) -> IntrinsicFunction:
    """Truncated parameter integral of f(t s) dt/t over a <= |t| <= b.

    Carries a decay certificate derived from the certificate of f and a
    bounded certificate C_alpha * pi / alpha.
    """
    if not 0.0 < a <= b:
        raise ArgumentError(f"need 0 < a <= b, got a={a}, b={b}")
    cert = _require_decay(f)
    inner = f.profile
    if a == b:
        zero = IntrinsicFunction(lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
                                 f.theta, kind="f_ab",
                                 params={"a": float(a), "b": float(b)})
        return zero.with_decay(DecayCertificate(cert.alpha, 0.0)).with_bounded(
            BoundedCertificate(0.0))
    u, w = gl_panel_grid(math.log(a), math.log(b))
    t = np.exp(u)

    def profile(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        tz = t[:, None] * flat[None, :]
        vals = inner(tz) - inner(-tz)
        out = pairwise_sum(w[:, None] * vals)
        return out.reshape(z.shape)

    alpha = cert.alpha
    k = (b ** alpha - a ** alpha + a ** -alpha - b ** -alpha) / alpha
    decay = DecayCertificate(alpha, 2.0 * cert.c_alpha * k)
    bounded = BoundedCertificate(cert.c_alpha * math.pi / alpha)
    return IntrinsicFunction(profile, f.theta, kind="f_ab",
                             params={"a": float(a), "b": float(b),
                                     "inner": f.params | {"kind": f.kind}},
                             decay=decay, bounded=bounded)


# ---------------------------------------------------------------------------
# registry

def resolve_function(spec, theta=DEFAULT_THETA) -> IntrinsicFunction:
    """Build an IntrinsicFunction from a registry entry {"name": ..., "params": ...}.

    Builtins: regularizer, e_alpha, rational, scaled, f_ab, product.  A
    rational entry may request certification via params "alpha" (decay fit)
    and "bounded" (sup fit).  A missing or malformed parameter raises
    SchemaError.
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise ArgumentError("function spec must be a dict with a 'name' key")
    name = spec["name"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"function {name!r}: 'params' must be an object")
    try:
        return _resolve_builtin(name, params, float(params.get("theta", theta)))
    except CliffSpecError:
        raise
    except KeyError as exc:
        raise SchemaError(f"function {name!r} needs parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"function {name!r} has a malformed parameter: {exc}") from None


def _resolve_builtin(name, params, theta):
    if name == "regularizer":
        return regularizer(theta)
    if name == "e_alpha":
        return e_alpha_family(params["alpha"], theta)
    if name == "rational":
        f = rational_function(params["num"], params["den"], theta)
        if params.get("alpha") is not None:
            f = f.with_decay(certify_decay(f, params["alpha"]))
        if params.get("bounded"):
            f = f.with_bounded(certify_bounded(f))
        return f
    if name == "scaled":
        return scale_function(resolve_function(params["inner"], theta), params["t"])
    if name == "f_ab":
        return f_ab_function(resolve_function(params["inner"], theta),
                             params["a"], params["b"])
    if name == "product":
        return product_function(*(resolve_function(p, theta) for p in params["factors"]))
    raise ArgumentError(f"unknown builtin function {name!r}")
