"""Functional calculi for bisectorial Clifford-module operators.

The decay-class calculus integrates the left S-resolvent against the
function along the four boundary rays of a double sector inside one slice,
parametrized with r = +-exp(u) so the quadrature runs on a uniform log
grid.  Resolvent data is precomputed once per (operator, contour) pair and
reused for every function and every scaling parameter, which makes whole
families f(tT) cheap: only the scalar factors change between nodes.

Error accounting: the truncation estimate comes from the decay certificate
and the sampled resolvent bound; the discretization estimate is the gap
between the sums over the even and the odd nodes (see ``evaluate_family``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import unit_imag
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
    block_form,
    coeffs_from_blocks,
    operator_from_real,
    rho_matrix,
    rho_stack,
    spectral_norm,
)
from .quadrature import gl_panel_grid, pairwise_sum, trapezoid_grid
from .spectrum import (
    _CHUNK,
    BisectorReport,
    check_bisectorial,
    conjugate_resolvent_bound,
    left_resolvents,
    q_inverse_stack,
    unit_blocks,
)

# the stored resolvent stack and one block of profile values are refused
# beyond this size, before anything is allocated
_MAX_ENGINE_BYTES = 2 ** 31


@dataclass(frozen=True)
class ContourConfig:
    """Contour and quadrature choices for the slice integral.

    phi = None resolves to the midpoint of (omega, theta) at call time.  Node
    counts are per ray and are rounded up to an odd number so the halved
    grid nests for Richardson estimates.
    """

    phi: float | None = None
    u_min: float = -30.0
    u_max: float = 30.0
    nodes: int = 2000

    def __post_init__(self):
        if self.u_min >= self.u_max:
            raise ArgumentError("need u_min < u_max")
        if self.nodes < 16:
            raise ArgumentError("need at least 16 nodes per ray")

    def resolve_phi(self, omega, theta):
        """phi, after checking omega < theta < pi/2 and omega < phi < theta."""
        if not omega < theta < math.pi / 2:
            raise ArgumentError(f"theta={theta} must lie in (omega, pi/2) "
                                f"with omega={omega}")
        phi = self.phi if self.phi is not None else 0.5 * (omega + theta)
        if not omega < phi < theta:
            raise ArgumentError(
                f"contour angle phi={phi:.6g} outside (omega, theta) = "
                f"({omega:.6g}, {theta:.6g})"
            )
        return float(phi)


class _ErrorBudget:
    """The error a result claims: its truncation plus discretization estimate."""

    @property
    def combined_error(self):
        return self.truncation_error + self.discretization_error


@dataclass(frozen=True)
class CalculusResult(_ErrorBudget):
    op: CliffordOperator
    truncation_error: float
    discretization_error: float


def combined_tolerance(*results, floor=1e-9):
    """Sum of the error estimates of several results plus a roundoff floor."""
    tol = floor
    for r in results:
        tol += r.combined_error
    return tol


def _stored_nodes(cfg):
    """Number of nodes the engine stores: those of the two rays at angle +phi."""
    return 2 * (cfg.nodes | 1)


class ContourEngine:
    """Precomputed resolvent data along the contour for one operator.

    evaluate_family(f, ts) integrates f(t s) against the stored resolvents
    for a whole vector of scalings; evaluate(f) is its case t = 1.

    The nodes z on the two rays at angle -phi are the conjugates of those at
    +phi.  Q_s depends on s only through (Re s, |s|) and every profile has
    F(conj z) = conj F(z), so each conjugate pair of left resolvents sums to
    alpha P - T beta P with real alpha, beta and P = Q_s^-1, which holds no
    slice unit J.  Only P at the nodes of angle +phi is stored, on the
    spinor blocks of rho (``module.block_form``); each family value is
    mapped back to rho.
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
        self.phi = cfg.resolve_phi(report.omega, float(theta))
        self.c_phi = report.c_at(self.phi)

        self._bt = block_form(T.coeffs, T.n)
        stored = _stored_nodes(cfg)
        need = 16 * stored * max(self._bt.size, _CHUNK)
        self.dim = T.m << T.n
        if need > _MAX_ENGINE_BYTES:
            raise ArgumentError(
                f"contour engine with {stored} stored nodes at D = {self.dim} needs "
                f"{need / 2 ** 30:.3g} GiB, above {_MAX_ENGINE_BYTES / 2 ** 30:g} GiB; "
                "use fewer nodes")
        n = cfg.nodes | 1
        u, w_ray = trapezoid_grid(cfg.u_min, cfg.u_max, n)
        # nodes are stored [even | odd], each parity ray by ray, so the two
        # partial sums contract slices of P; n is odd, so n + 1 are even
        order = np.argsort(np.tile(np.arange(n) % 2, 2), kind="stable")
        self._split = n + 1
        sign = np.repeat([1.0, -1.0], n)[order]
        u_all = np.tile(u, 2)[order]
        r = np.exp(u_all)
        self.u = u_all
        self.z = sign * r * np.exp(1j * self.phi)
        # -z_k is bitwise the node z_swap(k) of the other sign ray, so a
        # negative t reads the profile values of |t| through this permutation
        position = np.empty(2 * n, dtype=np.intp)
        position[order] = np.arange(2 * n)
        self._swap = position[(order + n) % (2 * n)]
        # slice scalar of each node: its weight in u, dr = e^u du, the 1/(2 pi)
        # prefactor and the direction factor sign e^{i phi} i of the ray
        phase = sign * np.exp(1j * self.phi) * 1j / (2.0 * math.pi)
        self._coef = np.tile(w_ray, 2)[order] * r * phase

        # rho(J) on the slice e_1, for the C_phi fallback and the assembled A
        self._bj = unit_blocks(unit_imag(T.n), T.m)
        try:
            self.P = q_inverse_stack(self._bt, np.real(self.z), r * r)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                "pseudo-resolvent singular on the contour (operator spectrum "
                "touches the integration rays)",
                node={"phi": self.phi},
            ) from exc
        if not np.all(np.isfinite(self.P)):
            bad = int(np.argwhere(~np.isfinite(self.P))[0][0])
            raise NumericalFailureError(
                "non-finite resolvent value on the contour",
                node={"u": float(self.u[bad]), "sign": float(sign[bad])},
            )
        if math.isinf(self.c_phi):
            # phi lies below every sampled angle: take C_phi from these rays
            # and their conjugates
            self.c_phi = conjugate_resolvent_bound(self._bt, self.P, np.real(self.z),
                                                   np.imag(self.z), r, self._bj)
        # the real view keeps the alpha, beta contractions on real GEMMs
        self._p_flat = self.P.view(np.float64).reshape(self.P.shape[0], -1)

    @property
    def A(self):
        """Left S-resolvents at the stored nodes on the slice e_1, as
        (nodes, D, D), assembled from P on each call."""
        left = left_resolvents(self._bt, self.P, np.real(self.z), np.imag(self.z),
                               self._bj)
        return rho_stack(coeffs_from_blocks(left, self.T.n), self.T.n)

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

        The profile is evaluated once per distinct |t|.  Each node is
        contracted once: the sums S_0, S_1 over the even and the odd nodes
        give the value S_0 + S_1 and, by comparison with the half-resolution
        rule 2 S_0, the discretization estimate ||S_1 - S_0||.
        """
        if f.decay is None:
            raise PreconditionError("contour calculus requires a decay certificate")
        ts = np.asarray(ts, dtype=float)
        mats = np.empty((ts.size, self.dim, self.dim))
        discs = np.empty(ts.size)
        ns = self._split
        s0, y = np.real(self.z), np.imag(self.z)
        shape = self._bt.shape

        def contract(coef, sl):
            # node z and its conjugate, with slice scalars c and conj c, sum
            # to alpha P - T beta P; alpha and beta are fresh contiguous
            # arrays, which keeps matmul on the fast BLAS path
            alpha = 2.0 * (coef.real * s0[sl] + coef.imag * y[sl])
            beta = 2.0 * coef.real
            nb = coef.shape[0]
            sum_a = (alpha @ self._p_flat[sl]).view(complex).reshape(nb, *shape)
            sum_b = (beta @ self._p_flat[sl]).view(complex).reshape(nb, *shape)
            return sum_a - self._bt @ sum_b

        mags, which = np.unique(np.abs(ts), return_inverse=True)
        for lo in range(0, mags.size, _CHUNK):
            hi = lo + _CHUNK
            vals = f.eval_complex(mags[lo:hi, None] * self.z[None, :])
            rows = np.flatnonzero((which >= lo) & (which < hi))
            vals = vals[which[rows] - lo]
            neg = ts[rows] < 0.0
            vals[neg] = vals[neg][:, self._swap]
            if not np.all(np.isfinite(vals)):
                i, k = np.argwhere(~np.isfinite(vals))[0]
                raise NumericalFailureError(
                    "non-finite function value on the contour",
                    node={"u": float(self.u[k]), "t": float(ts[rows[i]])},
                )
            coef = vals * self._coef[None, :]
            first = contract(coef[:, :ns], slice(0, ns))
            second = contract(coef[:, ns:], slice(ns, None))
            block = first + second
            mats[rows] = rho_stack(coeffs_from_blocks(block, self.T.n), self.T.n)
            discs[rows] = spectral_norm(second - first).max(axis=1)
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
        mats, truncs, discs = eng.evaluate_family(f, np.concatenate([t, -t]))
        k = t.size
        total = pairwise_sum(w[:, None, None] * (mats[:k] - mats[k:]))
        trunc = float(np.dot(w, truncs[:k] + truncs[k:]))
        disc = float(np.dot(w, discs[:k] + discs[k:]))
        return total, trunc, disc

    full, trunc, disc = quadrature(12)
    coarse, _, _ = quadrature(6)
    t_disc = float(spectral_norm(full - coarse))
    return CalculusResult(operator_from_real(full, T.n, T.m), trunc, disc + t_disc)


def adjoint_calculus_check(f: IntrinsicFunction, T: CliffordOperator,
                           report: BisectorReport,
                           cfg: ContourConfig | None = None) -> float:
    """Norm gap between f(T*) and f(T)*, both computed independently."""
    res_t = hinf_calculus(f, T, report, cfg)
    t_star = T.adjoint()
    report_star = check_bisectorial(t_star, report.omega)
    res_star = hinf_calculus(f, t_star, report_star, cfg)
    return float(spectral_norm(rho_matrix(res_star.op) - rho_matrix(res_t.op).T))
