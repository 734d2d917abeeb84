"""Reference computations made apart from cliffspec, and the output checks.

Nothing here imports cliffspec.  The real representation, the function
profiles, the matrix functions and the frame integrals are computed from
their definitions with numpy and scipy, so a check fails when the program's
numbers move, not when they stop matching an earlier run.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

# Roundoff allowances added to the error the program claims.  They sit far
# below the 1e-6 relative shift that a perturbed quadrature produces.
CALC_FLOOR = 1e-10
FRAME_FLOOR = 1e-9
# The ladder record carries no error estimate of its own; the f_ab operator's
# claimed error is at most 7.3e-8 on the rungs k <= 5 (criterion 07).
LADDER_TOL = 1e-7


# ---------------------------------------------------------------------------
# real representation

def blade_sign(a: int, b: int) -> int:
    """Sign of e_A e_B for generator masks A and B, with e_i^2 = -1."""
    gens_a = [i for i in range(a.bit_length()) if a >> i & 1]
    gens_b = [i for i in range(b.bit_length()) if b >> i & 1]
    swaps = sum(1 for i in gens_a for j in gens_b if i > j)
    repeats = sum(1 for i in gens_a if i in gens_b)
    return -1 if (swaps + repeats) % 2 else 1


def rho(coeffs) -> np.ndarray:
    """Matrix of v -> T v on the flattened module (slot index first, mask second)."""
    coeffs = np.asarray(coeffs, dtype=float)
    m, _, dim = coeffs.shape
    out = np.zeros((m * dim, m * dim))
    for a in range(dim):
        left = np.zeros((dim, dim))
        for b in range(dim):
            left[a ^ b, b] = blade_sign(a, b)
        out += np.kron(coeffs[:, :, a], left)
    return out


def conjugation_signs(n) -> np.ndarray:
    k = np.array([bin(a).count("1") for a in range(1 << n)])
    return np.where((k * (k + 1) // 2) % 2, -1.0, 1.0)


def adjoint(coeffs) -> np.ndarray:
    """Entry (i, j) of T* is the Clifford conjugate of entry (j, i)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = int(math.log2(coeffs.shape[2]))
    return coeffs.transpose(1, 0, 2) * conjugation_signs(n)


def operator_json(coeffs) -> dict:
    coeffs = np.asarray(coeffs, dtype=float)
    m, _, dim = coeffs.shape
    return {"n": int(math.log2(dim)), "m": int(m),
            "matrix": [[[float(x) for x in coeffs[i, j]] for j in range(m)]
                       for i in range(m)]}


def coeffs_from_json(obj) -> np.ndarray:
    return np.asarray(obj["matrix"], dtype=float).reshape(obj["m"], obj["m"], 1 << obj["n"])


# ---------------------------------------------------------------------------
# function profiles, from the registry definitions

def profile(spec):
    """Complex profile F of a registry entry (regularizer, rational, e_alpha, product)."""
    name = spec["name"]
    params = spec.get("params", {})
    if name == "regularizer":
        return lambda z: z / (1.0 + z * z)
    if name == "rational":
        num, den = params["num"], params["den"]
        return lambda z: np.polyval(num, z) / np.polyval(den, z)
    if name == "e_alpha":
        alpha = params["alpha"]

        def e_alpha(z):
            base = np.where(np.real(z) > 0.0, z, -z)
            return base ** alpha / (1.0 + z * z) ** alpha
        return e_alpha
    if name == "product":
        factors = [profile(p) for p in params["factors"]]

        def product(z):
            out = factors[0](z)
            for f in factors[1:]:
                out = out * f(z)
            return out
        return product
    raise ValueError(f"no reference profile for {name!r}")


def derivative(F, z0, radius=0.1, points=64):
    """F'(z0) by the trapezoid rule on Cauchy's integral over a small circle."""
    w = np.exp(2j * math.pi * np.arange(points) / points)
    return complex(np.mean(F(z0 + radius * w) / w) / radius)


# ---------------------------------------------------------------------------
# matrix functions

class Reference:
    """F(rho T) for one operator, from its eigendecomposition.

    ``jordan`` marks T = lam I + N with N^2 = 0, where F(T) = F(lam) I + F'(lam) N.
    """

    def __init__(self, coeffs, jordan=None):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.matrix = rho(self.coeffs)
        self.dim = self.matrix.shape[0]
        self.jordan = jordan
        m = self.matrix
        scale = max(1.0, float(np.abs(m).max()))
        self.symmetric = bool(np.abs(m - m.T).max() <= 1e-12 * scale)
        self.normal = bool(np.abs(m @ m.T - m.T @ m).max() <= 1e-10 * scale * scale)
        if self.symmetric:
            self.eigenvalues, self.vectors = np.linalg.eigh(m)
        else:
            self.eigenvalues, self.vectors = np.linalg.eig(m)
        self.norm = float(np.linalg.norm(m, 2))

    def apply(self, F) -> np.ndarray:
        if self.jordan is not None:
            lam = self.jordan
            nil = self.matrix - lam * np.eye(self.dim)
            out = complex(F(np.complex128(lam))) * np.eye(self.dim) + derivative(F, lam) * nil
            return np.real(out)
        vals = F(self.eigenvalues.astype(complex))
        if self.symmetric:
            return np.real((self.vectors * vals) @ self.vectors.T)
        return np.real((self.vectors * vals) @ np.linalg.inv(self.vectors))


def spectral_norm(matrix) -> float:
    return float(np.linalg.norm(matrix, 2))


# ---------------------------------------------------------------------------
# frame integrals and the f_ab ladder

def _log_integral(h, lo, hi):
    val, _ = integrate.quad(h, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def frame_integral(G, lam, t_min, t_max):
    """(full line, window) values of the integral of |g(t lam)|^2 dt/|t| over both
    signs of t, the window being t_min <= |t| <= t_max."""
    lam = complex(lam)

    def h(u):
        z = math.exp(u) * lam
        return abs(complex(G(np.complex128(z)))) ** 2 + abs(complex(G(np.complex128(-z)))) ** 2

    lo, hi = math.log(t_min), math.log(t_max)
    window = _log_integral(h, lo, hi)
    # |g(s)|^2 decays at least like |s|^2 at 0 and infinity: 60 e-folds past
    # the window edge is below roundoff
    tail = _log_integral(h, lo - 60.0, lo) + _log_integral(h, hi, hi + 60.0)
    return window + tail, window


def f_ab_profile(a, b):
    """Closed form of the truncated parameter integral of the regularizer."""
    return lambda z: 2.0 * (np.arctan(b * z) - np.arctan(a * z))


# ---------------------------------------------------------------------------
# checks: each returns (failure, problems).  A failure is an outcome that the
# paper rules out (a wrong exit code or certificate); problems are numbers
# that miss their reference.

def in_closed_sector(z, omega) -> bool:
    x, y = float(np.real(z)), abs(float(np.imag(z)))
    return y <= math.tan(omega) * abs(x) * (1.0 + 1e-12)


def check_calc(ref: Reference, spec, rc, data: bytes):
    if rc != 0:
        return f"exit {rc}, expected 0", []
    out = json.loads(data)
    got = rho(coeffs_from_json(out))
    want = ref.apply(profile(spec))
    gap = spectral_norm(got - want)
    tol = out["trunc_err"] + out["disc_err"] + CALC_FLOOR * max(1.0, spectral_norm(want))
    problems = []
    if not gap <= tol:
        problems.append(f"calc gap {gap:.3e} to V F(L) V^-1 exceeds claimed {tol:.3e}")
    return None, problems


def check_bisect(ref: Reference, omega, rc, data: bytes):
    out = json.loads(data)
    contained = all(in_closed_sector(z, omega) for z in ref.eigenvalues)
    failure = None
    if bool(out["certified"]) != contained:
        worst = max(ref.eigenvalues, key=lambda z: abs(math.atan2(abs(z.imag), abs(z.real))))
        failure = (f"certified={out['certified']} but eig(rho T) "
                   f"{'lies' if contained else 'does not lie'} in the closed sector "
                   f"(worst eigenvalue {complex(worst):.4g}, slice angle "
                   f"{math.degrees(math.atan2(abs(worst.imag), abs(worst.real))):.1f} deg "
                   f"> omega {math.degrees(omega):.1f} deg)")
    problems = []
    if rc != (0 if out["certified"] else 1):
        problems.append(f"exit {rc} disagrees with certified={out['certified']}")
    return failure, problems


def check_verify(ref: Reference, rc, data: bytes):
    report = json.loads(data)
    failure = None
    if rc != 0:
        failing = [r["name"] for r in report.get("records", []) if not r["pass"]]
        failure = f"exit {rc}, expected 0; failing records: {', '.join(failing) or 'none'}"
    problems = []
    if bool(report.get("passed")) != (rc == 0):
        problems.append(f"exit {rc} disagrees with passed={report.get('passed')}")
    if "hinf_norms" not in report:
        problems.append("report has no hinf_norms: stages were skipped")
        return failure, problems

    # two-step calculus norms against ||F(rho T)||
    for name, spec in zip(report["f_registry"], report["f_registry_specs"]):
        entry = report["hinf_norms"][name]
        want = spectral_norm(ref.apply(profile(spec)))
        tol = (entry["truncation_error"] + entry["discretization_error"]
               + CALC_FLOOR * max(1.0, want))
        gap = abs(entry["norm"] - want)
        if not gap <= tol:
            problems.append(f"hinf norm [f={name}] gap {gap:.3e} exceeds claimed {tol:.3e}")

    # frame operator eigenvalues for normal T: Theta has eigenvalues
    # int |g(t lam)|^2 dt/|t|; the tail outside the t-window is added to the
    # claimed error
    if ref.normal:
        t_min, t_max = 1e-5 / ref.norm, 1e5 / ref.norm
        for name, spec in zip(report["g_registry"], report["g_registry_specs"]):
            G = profile(spec)
            pairs = [frame_integral(G, lam, t_min, t_max) for lam in ref.eigenvalues]
            order = np.argsort([w for _, w in pairs])
            full = np.array([pairs[i][0] for i in order])
            tails = np.array([pairs[i][0] - pairs[i][1] for i in order])
            for side in ("T", "Tstar"):
                fb = report["frames"][name][side]
                got = np.sort(np.asarray(fb["thetaEigenvalues"]))
                err = fb["errorEstimates"]["truncation"] + fb["errorEstimates"]["discretization"]
                tol = err + np.abs(tails) + FRAME_FLOOR * np.maximum(1.0, np.abs(full))
                gap = np.abs(got - full)
                if not np.all(gap <= tol):
                    k = int(np.argmax(gap - tol))
                    problems.append(f"frame [g={name}, {side}] eigenvalue gap {gap[k]:.3e} "
                                    f"exceeds claimed {tol[k]:.3e}")

    # truncation ladder: deviations ||f_ab(T) - pi Id|| against the closed form
    ladder = next(r for r in report["records"] if r["name"] == "truncation_ladder_monotone")
    for k, dev in enumerate(ladder["deviations"], start=1):
        fab = ref.apply(f_ab_profile(10.0 ** -k, 10.0 ** k))
        want = spectral_norm(fab - math.pi * np.eye(ref.dim))
        if not abs(dev - want) <= LADDER_TOL:
            problems.append(f"ladder k={k} deviation {dev:.9g} vs closed form {want:.9g}")
    return failure, problems
