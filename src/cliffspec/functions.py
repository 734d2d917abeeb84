"""Intrinsic slice functions on double sectors and their certificates.

An intrinsic function is realized by a complex-analytic profile F with the
Schwarz symmetry F(conj z) = conj F(z); its value at x + J y is then
Re F(x + iy) + J Im F(x + iy), identically across slices.  The compatibility
conditions hold by construction and the Cauchy-Riemann equations reduce to
analyticity of the profile.

Decay certificates (alpha, C_alpha) witness |f(s)| <= C |s|^a / (1 + |s|^2a)
on the sector; bounded certificates record a sup norm.  A fitted certificate
evaluates |f| once on one sector sample set, and carries its point count; a
rational with a pole in the closed sector, or one that grows at infinity
where a sup norm is asked for, is refused before.  A product, scaling or
sum of rationals is a rational, with the poles of the rationals it is built
from; a product combines its factors' certificates by one rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import Paravector, polar_decompose
from .errors import (ArgumentError, CertificationError, CliffSpecError, DomainError,
                     NumericalFailureError, PreconditionError, SchemaError)
from .quadrature import gl_panel_grid, pairwise_sum, trapezoid_grid

DEFAULT_THETA = math.pi / 4
_CERTIFY_SAMPLES = 1000  # radii per ray of the certification sample set
_PROFILE_ENTRIES = 1 << 16  # (t, z) products per chunk of an f_ab profile
_MAX_F0_NODES = 1 << 20     # nodes of the f0_infty grid, refused beyond this before allocation


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
    """Intrinsic slice function given by a vectorized complex profile, which
    is called with a complex array."""

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
        return IntrinsicFunction(self.profile, self.theta, self.kind, self.params,
                                 cert, self.bounded)

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
    return IntrinsicFunction(profile, theta, kind="e_alpha", decay=cert)


def rational_function(num, den, theta=DEFAULT_THETA) -> IntrinsicFunction:
    """Real-coefficient rational profile; coefficients are highest power first."""
    num, den = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (num, den))
    if not any(den):
        raise ArgumentError("denominator is identically zero")
    return _rational(num, den, np.roots(den), theta, "the rational")


def _rational(num, den, poles, theta, built, decay=None, bounded=None, e=0):
    """num / den with the poles it was built with.  Coefficient k of a degree-d
    polynomial is taken times 2^(e (d - k)), and all by the power of two that
    puts den's largest |coefficient| in [1, 2): exactly, where a nonzero one
    stays a normal double, and with ArgumentError naming ``built`` where not."""
    num, den = (np.trim_zeros(c, "f") for c in (num, den))
    num = num if num.size else np.zeros(1)
    exps = [e * np.arange(c.size - 1, -1, -1) for c in (num, den)]
    shift = 1 - int(np.max((np.frexp(den)[1] + exps[1])[den != 0.0]))
    with np.errstate(all="ignore"):     # inf or a subnormal, refused below
        scaled = [np.ldexp(c, k + shift) for c, k in zip((num, den), exps)]
    given, coeffs = np.concatenate([num, den]), np.abs(np.concatenate(scaled))
    if not np.all((given == 0.0) | ((coeffs >= np.finfo(float).tiny) & np.isfinite(coeffs))):
        raise ArgumentError(f"{built} has a coefficient beyond the normal double "
                            "range once its denominator is normalized")
    num, den = scaled

    # where polyval overflows (|z| > ~1e154 for a quadratic), p / q is taken as
    # w^(deg q - deg p) p~(w) / q~(w), w = 1 / z, p~ and q~ reversed and trimmed
    rev_num, rev_den = (np.trim_zeros(c, "f")[::-1] for c in (num, den))

    def profile(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            out = np.asarray(np.polyval(num, z) / np.polyval(den, z))
            far = ~np.isfinite(out)
            if np.any(far):
                far &= np.abs(z) > 1.0
                w = 1.0 / z[far]
                out[far] = (w ** (rev_den.size - rev_num.size) * np.polyval(rev_num, w)
                            / np.polyval(rev_den, w))
        return out

    return IntrinsicFunction(profile, theta, "rational", {"num": num, "den": den, "poles": poles},
                             decay, bounded)


def constant_function(value, theta=DEFAULT_THETA) -> IntrinsicFunction:
    f = rational_function([float(value)], [1.0], theta=theta)
    return f.with_bounded(BoundedCertificate(sup_norm=abs(float(value))))


def scale_function(f: IntrinsicFunction, t) -> IntrinsicFunction:
    """The intrinsic function s -> f(t s) for real t != 0; of a rational, the
    rational with coefficients c_k t^(deg - k), whose poles p move to p / t."""
    t = float(t)
    if t == 0.0:
        raise ArgumentError("scale factor t must be nonzero")
    decay = None
    if f.decay is not None:
        a = f.decay.alpha
        try:
            c = f.decay.c_alpha * max(abs(t) ** a, abs(t) ** -a)
        except OverflowError:   # inf, a claim ``truncation_bound`` refuses
            c = math.inf
        decay = DecayCertificate(a, c, f.decay.samples)
    poles = f.params.get("poles", np.zeros(0)) / t
    if f.kind == "rational":    # t = m 2^e: m^j 2^(e j) keeps t^j in range
        m, e = math.frexp(t)
        num, den = (c * np.float_power(m, np.arange(c.size - 1.0, -1.0, -1.0))
                    for c in (f.params["num"], f.params["den"]))
        return _rational(num, den, poles, f.theta, f"the scaling by t={t:g}", decay,
                         f.bounded, e)
    inner = f.profile
    return IntrinsicFunction(lambda z: inner(t * z), f.theta, "scaled", {"poles": poles},
                             decay, f.bounded)


def product_function(*factors) -> IntrinsicFunction:
    """Pointwise product; decay exponents add and constants multiply.  Of
    rationals, the rational of the multiplied coefficients and the poles of
    all factors."""
    if len(factors) < 2:
        raise ArgumentError("product needs at least two factors")
    theta = min(f.theta for f in factors)

    # one rule: exponents add and constants multiply, where a factor without
    # decay brings its sup norm; a factor with neither certificate voids both
    sups = [None if f.bounded is None else f.bounded.sup_norm for f in factors]
    consts = [s if f.decay is None else f.decay.c_alpha for f, s in zip(factors, sups)]
    alphas = [f.decay.alpha for f in factors if f.decay is not None]
    decay = bounded = None
    if alphas and None not in consts:
        decay = DecayCertificate(sum(alphas), math.prod(consts))
    if None not in sups:
        bounded = BoundedCertificate(math.prod(sups))
    poles = np.concatenate([f.params.get("poles", np.zeros(0)) for f in factors])
    if all(f.kind == "rational" for f in factors):
        num, den = (functools.reduce(np.convolve, (f.params[k] for f in factors))
                    for k in ("num", "den"))
        return _rational(num, den, poles, theta, "the product", decay, bounded)
    first, *rest = (f.profile for f in factors)
    return IntrinsicFunction(lambda z: functools.reduce(lambda out, p: out * p(z), rest, first(z)),
                             theta, "product", {"poles": poles}, decay, bounded)


def sum_function(f: IntrinsicFunction, g: IntrinsicFunction) -> IntrinsicFunction:
    """Pointwise sum, with the poles of both terms; of two rationals,
    (p1 q2 + p2 q1) / (q1 q2)."""
    theta = min(f.theta, g.theta)
    poles = np.concatenate([h.params.get("poles", np.zeros(0)) for h in (f, g)])
    if f.kind == g.kind == "rational":
        (p1, q1), (p2, q2) = ((h.params["num"], h.params["den"]) for h in (f, g))
        with np.errstate(all="ignore"):     # inf, refused by ``_rational``
            num = np.polyadd(np.convolve(p1, q2), np.convolve(p2, q1))
        return _rational(num, np.convolve(q1, q2), poles, theta, "the sum")
    pf, pg = f.profile, g.profile
    return IntrinsicFunction(lambda z: pf(z) + pg(z), theta, "sum", {"poles": poles})


# ---------------------------------------------------------------------------
# sampling-based certification

def _sample_points(theta, samples_per_ray):
    """Log-spaced radii in [1e-4, 1e4] on the four boundary rays plus interior rays."""
    radii = np.logspace(-4.0, 4.0, samples_per_ray)
    edge = theta * (1.0 - 1e-9)
    return np.concatenate([radii * np.exp(1j * (base + off)) for base in (0.0, math.pi)
                           for off in (edge, -edge, theta / 2, -theta / 2, 0.0)])


def _refuse_unbounded_rational(f, at_infinity=False):
    """CertificationError for a function built with a pole in the closed
    double sector, 0 included (a rational's, or a rational factor's), and
    with ``at_infinity`` for a rational that grows there."""
    for pole in f.params.get("poles", ()):
        if math.atan2(abs(pole.imag), abs(pole.real)) <= f.theta:
            where = f"{pole.real:.6g}" if pole.imag == 0 else f"{complex(pole):.6g}"
            raise CertificationError(
                f"the rational has a pole at {where}, in the closed double sector "
                f"of half-angle {f.theta:.6g}")
    if at_infinity and f.kind == "rational":
        num, den = (f.params[k].size - 1 for k in ("num", "den"))
        if num > den:
            raise CertificationError(
                f"the rational grows at infinity: its numerator has degree {num}, "
                f"its denominator {den}")


def _sampled_sup(f, weigh=None):
    """max |f|, or max ``weigh(|f|, r)``, on the sector sample set at r = |z|:
    over all its radii and over those in [1e-2, 1e2], with the point count."""
    z = _sample_points(f.theta, _CERTIFY_SAMPLES)
    vals = np.abs(f.eval_complex(z))
    r = np.abs(z)
    if weigh is not None:
        vals = weigh(vals, r)
    narrow = (r >= 1e-2) & (r <= 1e2)
    return float(np.max(vals)), float(np.max(vals[narrow])), z.size


def certify_decay(f: IntrinsicFunction, alpha) -> DecayCertificate:
    """Fit the smallest C_alpha over the sample set for the given alpha.

    The fit must be stable: widening the radius window from [1e-2, 1e2] to
    [1e-4, 1e4] may not inflate the constant by more than a factor 5,
    otherwise there is no decay of that order and CertificationError is raised,
    as it is for a constant that overflows on the sample set.
    """
    if alpha <= 0.0:
        raise ArgumentError("decay exponent alpha must be positive")
    _refuse_unbounded_rational(f)

    def weigh(vals, r):
        with np.errstate(all="ignore"):    # inf or nan, refused below
            return vals * (1.0 + r ** (2 * alpha)) / r ** alpha

    c_wide, c_narrow, samples = _sampled_sup(f, weigh)
    if not np.isfinite(c_wide):
        raise CertificationError(
            f"the decay constant of order alpha={alpha} overflows on the sample set")
    if c_wide > 5.0 * c_narrow:
        raise CertificationError(
            f"no stable decay of order alpha={alpha}: constant grows from "
            f"{c_narrow:.3e} to {c_wide:.3e} as the radius window widens"
        )
    return DecayCertificate(float(alpha), c_wide, samples=samples)


def certify_bounded(f: IntrinsicFunction) -> BoundedCertificate:
    """Sampled sup norm over the sector sampling set."""
    _refuse_unbounded_rational(f, at_infinity=True)
    sup, _, samples = _sampled_sup(f)
    if not np.isfinite(sup):
        raise CertificationError("function is non-finite on the sample set")
    return BoundedCertificate(sup, samples=samples)


def ensure_bounded(f: IntrinsicFunction) -> IntrinsicFunction:
    """f itself when it carries a bounded certificate, else f with a sampled one."""
    return f if f.bounded is not None else f.with_bounded(certify_bounded(f))


def check_intrinsic(f: IntrinsicFunction, points):
    """Max relative Cauchy-Riemann residual of the profile at complex points,
    by central differences of step 1e-6."""
    h = 1e-6
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    fx = (f.eval_complex(z + h) - f.eval_complex(z - h)) / (2 * h)
    fy = (f.eval_complex(z + 1j * h) - f.eval_complex(z - 1j * h)) / (2 * h)
    # analyticity: d/dy = i d/dx
    scale = np.maximum(np.maximum(np.abs(fx), np.abs(fy)), 1e-30)
    return float(np.max(np.abs(fy - 1j * fx) / scale))


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
    try:
        U = math.log(4.0 * c / (alpha * 1e-9)) / alpha
    except ZeroDivisionError:   # alpha * 1e-9 underflows
        U = math.inf
    # step at most 0.05 and at least 64 nodes
    nodes = 2.0 * U / 0.05
    if not nodes <= _MAX_F0_NODES:
        raise ArgumentError(
            f"the parameter integral of a function of decay alpha={alpha:g} needs "
            f"{nodes:.3g} grid nodes, above {_MAX_F0_NODES}; use a larger alpha")
    u, w = trapezoid_grid(-U, U, max(64, int(math.ceil(nodes)) + 1))
    t = np.exp(u)
    if direction is None:
        z = t.astype(complex)
    else:
        r, axis, phi = polar_decompose(direction)
        z = t * np.exp(1j * phi)
    with np.errstate(all="ignore"):    # a non-finite value is refused below, unwarned
        vals = f.eval_complex(z) - f.eval_complex(-z)
    if not np.all(np.isfinite(vals)):
        bad = float(t[np.argmax(~np.isfinite(vals))])
        raise NumericalFailureError(f"non-finite function value on the parameter line at "
                                    f"t={bad:.6g}", node={"t": bad})
    total = pairwise_sum(w * vals)
    return float(np.real(total))


def arctan_tails(a, b, alpha):
    """atan(a^alpha) + pi/2 - atan(b^alpha), computed as
    atan(a^alpha) + atan(b^-alpha), which keeps its relative accuracy where
    both terms fall below the rounding of pi/2, for arrays a, b too."""
    with np.errstate(over="ignore"):    # an overflowed power is inf, whose atan is exact
        return np.arctan(np.float_power(a, alpha)) + np.arctan2(1.0, np.float_power(b, alpha))


def f_ab_tail_bound(cert: DecayCertificate, a, b, scale=1.0):
    """Arctan bound for |f_ab - f_0inf| at |s| = scale."""
    alpha, c = cert.alpha, cert.c_alpha
    return (2.0 * c / alpha) * arctan_tails(a * scale, b * scale, alpha)


def f_ab_function(f: IntrinsicFunction, a, b) -> IntrinsicFunction:
    """Truncated parameter integral of f(t s) dt/t over a <= |t| <= b.

    Carries a decay certificate derived from the certificate of f and a
    bounded certificate C_alpha * pi / alpha.
    """
    if not 0.0 < a <= b < math.inf:
        raise ArgumentError(f"need 0 < a <= b < inf, got a={a}, b={b}")
    cert = _require_decay(f)
    inner = f.profile
    u, w = gl_panel_grid(math.log(a), math.log(b))
    t = np.exp(u)

    # each column of the (t, z) products sums over t on its own, so columns
    # go in chunks of cols to 2 cols - 1 (the remainder joins the last): the
    # peak does not grow with log(b / a).  A split happens only above
    # _PROFILE_ENTRIES products, and each of its chunks holds at least half
    # as many (512 KiB), above the 256 KiB from which numpy computes on
    # temporaries in place, with loops that round differently; so the
    # values are those of one piece, bit for bit
    cols = max(1, _PROFILE_ENTRIES // t.size)

    def profile(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        edges = [0, *range(cols, flat.size - cols + 1, cols), flat.size]
        for lo, hi in zip(edges[:-1], edges[1:]):
            tz = t[:, None] * flat[None, lo:hi]
            out[lo:hi] = pairwise_sum(w[:, None] * (inner(tz) - inner(-tz)))
        return out.reshape(z.shape)

    alpha = cert.alpha
    try:
        k = (b ** alpha - a ** alpha + a ** -alpha - b ** -alpha) / alpha
    except OverflowError:   # inf, as ``arctan_tails`` overflows: a claim the callers refuse
        k = math.inf
    decay = DecayCertificate(alpha, 2.0 * cert.c_alpha * k)
    bounded = BoundedCertificate(cert.c_alpha * math.pi / alpha)
    # the contour's rule bound of f_ab: f's certificate times 2 log(b / a), by
    # Fubini (``calculus._rule_terms``)
    params = {"inner_decay": cert, "rule_factor": 2.0 * (math.log(b) - math.log(a))}
    return IntrinsicFunction(profile, f.theta, kind="f_ab", params=params, decay=decay,
                             bounded=bounded)


# ---------------------------------------------------------------------------
# registry

def resolve_function(spec, theta=DEFAULT_THETA) -> IntrinsicFunction:
    """Build an IntrinsicFunction from a registry entry {"name": ..., "params": ...}.

    Builtins: regularizer, e_alpha, rational, scaled, f_ab, product.  A
    rational entry may request certification via params "alpha" (decay fit)
    and "bounded" (sup fit).  Every entry, nested ones too, takes the
    caller's half-angle ``theta``; an entry that sets its own, a missing or
    a malformed parameter raises SchemaError.
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise SchemaError("function spec must be a dict with a 'name' key")
    name = spec["name"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"function {name!r}: 'params' must be an object")
    if "theta" in params:
        raise SchemaError(f"function {name!r} sets 'theta'; every function takes "
                          "the run's angle, set it with --theta")
    try:
        return _resolve_builtin(name, params, theta)
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
