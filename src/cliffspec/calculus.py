"""Functional calculi for bisectorial Clifford-module operators.

The decay-class calculus integrates the left S-resolvent against the
function along the four boundary rays of a double sector inside one slice,
parametrized with r = +-exp(u) so the quadrature runs on a uniform log
grid.  Resolvent data is precomputed once per (operator, contour) pair and
reused for every function and every scaling parameter, which makes whole
families f(tT) cheap: only the scalar factors change between nodes.

Error accounting: the truncation estimate comes from the decay certificate
and the sampled resolvent bound; the discretization estimate is a Richardson
comparison against the half-resolution node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import Paravector, unit_imag
from .errors import (
    ArgumentError,
    NumericalFailureError,
    PreconditionError,
)
from .functions import (
    IntrinsicFunction,
    product_function,
    regularizer,
    scale_function,
)
from .module import (
    CliffordOperator,
    OperatorSolver,
    operator_from_real,
    rho_matrix,
)
from .quadrature import gauss_panels, gl_panel_grid, pairwise_sum, trapezoid_grid
from .spectrum import _CHUNK, BisectorReport, check_bisectorial, left_resolvent_stack


@dataclass(frozen=True)
class ContourConfig:
    """Contour and quadrature choices for the slice integral.

    phi = None resolves to the midpoint of (omega, theta) at call time.  The
    slice unit J is the coordinate axis ``axis`` unless an explicit unit
    ``axis_vector`` is supplied.  Node counts are per ray and are rounded up
    to an odd number so the halved grid nests for Richardson estimates.
    """

    phi: float | None = None
    axis: int = 0
    axis_vector: tuple | None = None
    u_min: float = -30.0
    u_max: float = 30.0
    nodes: int = 2000
    rule: str = "trapezoid"

    def __post_init__(self):
        if self.u_min >= self.u_max:
            raise ArgumentError("need u_min < u_max")
        if self.nodes < 16:
            raise ArgumentError("need at least 16 nodes per ray")
        if self.rule not in ("trapezoid", "gauss"):
            raise ArgumentError(f"unknown quadrature rule {self.rule!r}")

    def resolve_phi(self, omega, theta):
        phi = self.phi if self.phi is not None else 0.5 * (omega + theta)
        if not omega < phi < theta:
            raise ArgumentError(
                f"contour angle phi={phi:.6g} outside (omega, theta) = "
                f"({omega:.6g}, {theta:.6g})"
            )
        return float(phi)

    def unit(self, n) -> Paravector:
        if self.axis_vector is not None:
            v = np.asarray(self.axis_vector, dtype=float)
            if v.shape != (n,) or not math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12):
                raise ArgumentError("axis_vector must be a unit vector of length n")
            return Paravector(0.0, v)
        return unit_imag(n, self.axis)


@dataclass(frozen=True)
class CalculusResult:
    op: CliffordOperator
    truncation_error: float
    discretization_error: float

    @property
    def combined_error(self):
        return self.truncation_error + self.discretization_error


def combined_tolerance(*results, floor=1e-9):
    """Sum of the error estimates of several results plus a roundoff floor."""
    tol = floor
    for r in results:
        tol += r.truncation_error + r.discretization_error
    return tol


def _ray_nodes(cfg):
    """Per-ray quadrature nodes and (full, half) weights in u = log r."""
    n = cfg.nodes if cfg.nodes % 2 == 1 else cfg.nodes + 1
    if cfg.rule == "trapezoid":
        u, w = trapezoid_grid(cfg.u_min, cfg.u_max, n)
        h = u[1] - u[0]
        w_half = np.zeros(n)
        w_half[::2] = 2.0 * h
        w_half[0] = w_half[-1] = h
        return u, w, w_half
    # gauss: fixed-order panels; the comparison estimate is a lower-order
    # rule on the same panels, so both share one node set (fine nodes carry
    # zero weight in the coarse rule and vice versa)
    p = 8
    panels = max(2, n // p)
    u_f, w_f = gauss_panels(cfg.u_min, cfg.u_max, panels, p)
    u_c, w_c = gauss_panels(cfg.u_min, cfg.u_max, panels, p // 2)
    return (np.concatenate([u_f, u_c]), np.concatenate([w_f, np.zeros_like(w_c)]),
            np.concatenate([np.zeros_like(w_f), w_c]))


class ContourEngine:
    """Precomputed resolvent data along the contour for one operator.

    evaluate_family(f, ts) integrates f(t s) against the stored resolvents
    for a whole vector of scalings; evaluate(f) is its case t = 1.
    """

    def __init__(self, T: CliffordOperator, report: BisectorReport,
                 theta: float, cfg: ContourConfig | None = None):
        cfg = cfg or ContourConfig()
        if not report.certified:
            raise PreconditionError(
                "operator lacks a bisectoriality certificate (spectrum containment "
                "or resolvent bounds failed)"
            )
        self.T = T
        self.cfg = cfg
        self.report = report
        self.theta = float(theta)
        self.phi = cfg.resolve_phi(report.omega, self.theta)
        self.axis = cfg.unit(T.n)
        self.c_phi = report.c_at(self.phi)

        u, w_ray, w_half_ray = _ray_nodes(cfg)
        n = u.size
        # nodes are stored [even | odd] by their index along the ray, each part
        # ray by ray, so the half-resolution sums contract slices of A
        order = np.argsort(np.tile(np.arange(n) % 2, 4), kind="stable")
        self._n_even = 4 * ((n + 1) // 2)
        branch = np.repeat([1.0, 1.0, -1.0, -1.0], n)[order]
        sign = np.repeat([1.0, -1.0, 1.0, -1.0], n)[order]
        u_all = np.tile(u, 4)[order]
        r = np.exp(u_all)
        self.u = u_all
        self.z = sign * r * np.exp(1j * branch * self.phi)
        # dr = e^u du on each half-line; 1/(2 pi) prefactor folded in
        self.wts = np.tile(w_ray, 4)[order] * r / (2.0 * math.pi)
        self.wts_half = np.tile(w_half_ray, 4)[order] * r / (2.0 * math.pi)
        # right multiplication of an operator by a slice scalar c = c0 + c1 J
        # is composition with left multiplication, Re(c) I + Im(c) rho(J)
        self.phase = branch * sign * np.exp(1j * branch * self.phi) * 1j

        rho_t = rho_matrix(T)
        d = rho_t.shape[0]
        j_full = np.kron(np.eye(T.m), self.axis.left_matrix())
        try:
            resolv = left_resolvent_stack(rho_t, np.real(self.z), np.imag(self.z),
                                          r * r, j_full)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                "pseudo-resolvent singular on the contour (operator spectrum "
                "touches the integration rays)",
                node={"phi": self.phi},
            ) from exc
        if not np.all(np.isfinite(resolv)):
            bad = int(np.argwhere(~np.isfinite(resolv))[0][0])
            raise NumericalFailureError(
                "non-finite resolvent value on the contour",
                node={"u": float(self.u[bad]), "branch": float(branch[bad]),
                      "sign": float(sign[bad])},
            )
        if math.isinf(self.c_phi):
            # phi lies below every sampled angle: take C_phi from these rays
            self.c_phi = float(np.max(r * np.linalg.svd(resolv, compute_uv=False)[:, 0]))
        self.dim = d
        self.A = resolv
        self.j_full = j_full
        self._a_flat = self.A.reshape(self.A.shape[0], d * d)
        # on trapezoid grids the doubled even-node weights equal the halved
        # rule exactly, so half = 2 * (even part) and full = even + odd
        self._half_nests = bool(np.array_equal(
            np.where(np.arange(4 * n) < self._n_even, 2.0 * self.wts, 0.0), self.wts_half))

    def truncation_bound(self, decay, t=1.0):
        alpha, c_alpha = decay.alpha, decay.c_alpha
        a = abs(t) * math.exp(self.cfg.u_min)
        b = abs(t) * math.exp(self.cfg.u_max)
        tail = math.atan(a ** alpha) + math.pi / 2 - math.atan(b ** alpha)
        return 2.0 * self.c_phi * c_alpha * tail / (math.pi * alpha)

    def evaluate(self, f: IntrinsicFunction):
        """Real-representation matrix of f(T) with error estimates."""
        mats, truncs, discs = self.evaluate_family(f, [1.0])
        return mats[0], float(truncs[0]), float(discs[0])

    def evaluate_family(self, f: IntrinsicFunction, ts):
        """Stack of f(t T) matrices for a whole vector of nonzero scalings.

        On nested (trapezoid) grids the half-resolution estimate is the sum
        over even nodes with doubled weights, so the Richardson comparison
        costs nothing extra.
        """
        if f.decay is None:
            raise PreconditionError("contour calculus requires a decay certificate")
        ts = np.asarray(ts, dtype=float)
        d = self.dim
        mats = np.empty((ts.size, d, d))
        discs = np.empty(ts.size)
        ne = self._n_even

        def contract(coef, a_flat):
            # the slice unit is node independent, so the imaginary part sums
            # first and multiplies by rho(J) once; contiguous copies of the
            # real/imag parts keep matmul on the fast BLAS path (strided
            # views fall off it badly)
            nb = coef.shape[0]
            re_part = np.ascontiguousarray(coef.real) @ a_flat
            im_part = np.ascontiguousarray(coef.imag) @ a_flat
            return re_part.reshape(nb, d, d) + im_part.reshape(nb, d, d) @ self.j_full

        for lo in range(0, ts.size, _CHUNK):
            chunk = ts[lo:lo + _CHUNK]
            vals = f.eval_complex(chunk[:, None] * self.z[None, :])
            if not np.all(np.isfinite(vals)):
                i, k = np.argwhere(~np.isfinite(vals))[0]
                raise NumericalFailureError(
                    "non-finite function value on the contour",
                    node={"u": float(self.u[k]), "t": float(chunk[i])},
                )
            vals = vals * self.phase[None, :]
            coef = vals * self.wts[None, :]
            nb = chunk.size
            if self._half_nests:
                even = contract(coef[:, :ne], self._a_flat[:ne])
                odd = contract(coef[:, ne:], self._a_flat[ne:])
                mats[lo:lo + nb] = even + odd
                diff = odd - even
            else:
                block = contract(coef, self._a_flat)
                mats[lo:lo + nb] = block
                diff = block - contract(vals * self.wts_half[None, :], self._a_flat)
            discs[lo:lo + nb] = np.linalg.svd(diff, compute_uv=False)[:, 0]
        truncs = np.array([self.truncation_bound(f.decay, t) for t in ts])
        return mats, truncs, discs


def _check_report(report):
    if not isinstance(report, BisectorReport):
        raise PreconditionError("a BisectorReport for the operator is required")


def omega_calculus(f: IntrinsicFunction, T: CliffordOperator,
                   report: BisectorReport, cfg: ContourConfig | None = None,
                   engine: ContourEngine | None = None) -> CalculusResult:
    """Contour calculus f(T) for certified-decay f and certified-bisectorial T."""
    _check_report(report)
    if f.decay is None:
        raise PreconditionError("omega calculus requires a decay certificate on f")
    eng = engine or ContourEngine(T, report, f.theta, cfg)
    mat, trunc, disc = eng.evaluate(f)
    return CalculusResult(operator_from_real(mat, T.n, T.m), trunc, disc)


def rational_calculus(f: IntrinsicFunction, T: CliffordOperator) -> CliffordOperator:
    """Direct evaluation p(T) q(T)^{-1} for a rational intrinsic function.

    Serves as the independent oracle for the quadrature path.
    """
    if f.kind != "rational":
        raise ArgumentError("rational_calculus needs a rational registry function")
    num = f.params["num"]
    den = f.params["den"]
    rho_t = rho_matrix(T)
    d = rho_t.shape[0]

    def horner(coeffs):
        out = np.zeros((d, d))
        for c in coeffs:
            out = out @ rho_t + c * np.eye(d)
        return out

    p = horner(num)
    q = horner(den)
    solver = OperatorSolver(q, T.n, T.m)
    solver.require_invertible(what="denominator")
    return operator_from_real(solver.solve_real(p), T.n, T.m)


def hinf_calculus(f: IntrinsicFunction, T: CliffordOperator,
                  report: BisectorReport, cfg: ContourConfig | None = None,
                  engine: ContourEngine | None = None) -> CalculusResult:
    """Two-step calculus e(T)^{-1} (e f)(T) for bounded intrinsic f.

    Requires an injectivity-certified bisectorial operator and a bounded
    certificate on f; the regularized product picks up its decay certificate
    from the regularizer.
    """
    _check_report(report)
    if f.bounded is None:
        raise PreconditionError("hinf calculus requires a bounded certificate on f")
    if not report.injective:
        raise PreconditionError("hinf calculus requires an injective operator")
    e = regularizer(f.theta)
    ef = product_function(e, f)
    eng = engine or ContourEngine(T, report, f.theta, cfg)
    ef_mat, trunc, disc = eng.evaluate(ef)
    e_mat = rho_matrix(rational_calculus(e, T))
    solver = OperatorSolver(e_mat, T.n, T.m)
    solver.require_invertible(what="regularizer operator e(T)")
    x = solver.solve_real(ef_mat)
    scale = 1.0 / solver.sigma_min
    return CalculusResult(operator_from_real(x, T.n, T.m),
                          trunc * scale, disc * scale)


def scaled_calculus(f: IntrinsicFunction, t, T: CliffordOperator,
                    report: BisectorReport, cfg: ContourConfig | None = None,
                    engine: ContourEngine | None = None) -> CalculusResult:
    """f(tT) as the contour calculus of the scaled function; t = 1 is bitwise
    identical to omega_calculus."""
    if t == 0.0:
        raise ArgumentError("scaling parameter t must be nonzero")
    return omega_calculus(scale_function(f, t), T, report, cfg, engine)


def f_ab_operator(f: IntrinsicFunction, a, b, T: CliffordOperator,
                  report: BisectorReport, cfg: ContourConfig | None = None,
                  engine: ContourEngine | None = None) -> CalculusResult:
    """Truncated parameter integral of f(tT) dt/t over a <= |t| <= b."""
    if not 0.0 < a <= b:
        raise ArgumentError(f"need 0 < a <= b, got a={a}, b={b}")
    _check_report(report)
    if a == b:
        return CalculusResult(CliffordOperator.zero(T.n, T.m), 0.0, 0.0)
    eng = engine or ContourEngine(T, report, f.theta, cfg)

    def quadrature(points):
        u, w = gl_panel_grid(math.log(a), math.log(b), points=points)
        t = np.exp(u)
        pos, trunc_p, disc_p = eng.evaluate_family(f, t)
        neg, trunc_n, disc_n = eng.evaluate_family(f, -t)
        total = pairwise_sum(w[:, None, None] * (pos - neg))
        trunc = float(np.dot(w, trunc_p + trunc_n))
        disc = float(np.dot(w, disc_p + disc_n))
        return total, trunc, disc

    full, trunc, disc = quadrature(12)
    coarse, _, _ = quadrature(6)
    t_disc = float(np.linalg.svd(full - coarse, compute_uv=False)[0])
    return CalculusResult(operator_from_real(full, T.n, T.m), trunc, disc + t_disc)


def adjoint_calculus_check(f: IntrinsicFunction, T: CliffordOperator,
                           report: BisectorReport,
                           cfg: ContourConfig | None = None) -> float:
    """Norm gap between f(T*) and f(T)*, both computed independently."""
    res_t = hinf_calculus(f, T, report, cfg)
    t_star = T.adjoint()
    report_star = check_bisectorial(t_star, report.omega)
    res_star = hinf_calculus(f, t_star, report_star, cfg)
    gap = rho_matrix(res_star.op) - rho_matrix(res_t.op).T
    return float(np.linalg.svd(gap, compute_uv=False)[0])
