"""Quadratic-norm integrals, frame bounds and the dyadic sign identity.

The square-integral of t -> ||g(tT)v|| against dt/|t| is discretized on a
log grid over both signs of t, every q-th node of the configured one with q
from the analyticity strip of log t (``_grid_engine``, ``GridBound``), and
the family is evaluated on a contour whose step divides the grid's
(``lattice_contour``).  Assembling the weighted Gram matrix
Theta = sum_k w_k rho(g(t_k T))^T rho(g(t_k T)) turns
the two-sided frame inequality into an eigenvalue problem: the extreme
eigenvalues of Theta are the squares of the best constants for the
discretized integral, whose value at v is v^T Theta v.  Theta is
assembled and solved on the spinor blocks of the family
(``ContourEngine.evaluate_blocks``) and mapped to D x D once.

Every function here takes the certificate of T as its input: a
BisectorReport, or a family (an engine, for the dyadic sign identity) built
on a certified one.  Without either it raises PreconditionError, as the
calculus layer does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    _COLUMNS,
    _MAX_ENGINE_BYTES,
    ContourConfig,
    ContourEngine,
    RULE_TARGET,
    STRIP_SHARE,
    _check_report,
    _ErrorBudget,
    _smooth_size,
    rule_fits,
)
from .clifford import spinor_blades
from .errors import ArgumentError, PreconditionError
from .functions import IntrinsicFunction
from .module import (
    CliffordOperator,
    ModuleVector,
    block_norms,
    blocks_from_rho,
    coeffs_from_blocks,
    hermitian_eigenvalues,
    operator_norm,
    rho_stack,
)
from .quadrature import pairwise_sum, trapezoid_error, trapezoid_grid
from .spectrum import BisectorReport

MAX_SIGN_WINDOW = 20  # exact enumeration cap on 2n


@dataclass(frozen=True)
class QuadGridConfig:
    """Log-spaced |t| grid over both signs for the dt/|t| quadrature; the
    default window is that of ``default_quad_grid`` at ||T|| = 1.  As a
    run's grid, ``nodes`` (its steps, when even) is the finest it may use:
    ``_grid_engine`` takes every q-th node where the strip allows."""

    t_min: float = 1e-5
    t_max: float = 1e5
    nodes: int = 400  # per sign

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max:
            raise ArgumentError("need 0 < t_min < t_max")
        if self.nodes < 32:
            raise ArgumentError("need at least 32 nodes per sign")

    @property
    def step(self):
        """The step in u = log|t|, (log t_max - log t_min) / steps."""
        return (math.log(self.t_max) - math.log(self.t_min)) / ((self.nodes | 1) - 1)

    def grid(self):
        """(t, w) with both signs interleaved as (+grid, -grid)."""
        n = self.nodes if self.nodes % 2 == 1 else self.nodes + 1
        u, w = trapezoid_grid(math.log(self.t_min), math.log(self.t_max), n)
        t = np.exp(u)
        return np.concatenate([t, -t]), np.concatenate([w, w])


def default_quad_grid(T: CliffordOperator, nodes=QuadGridConfig.nodes) -> QuadGridConfig:
    scale = max(operator_norm(T), 1e-30)
    return QuadGridConfig(QuadGridConfig.t_min / scale, QuadGridConfig.t_max / scale, nodes)


def lattice_contour(qcfg: QuadGridConfig, cfg: ContourConfig | None = None, fits=None):
    """(contour, stride): ``cfg`` with its step refined so that the step
    h_t of the quadrature grid is ``stride`` contour steps.

    The step becomes h_u = h_t / p, p the smallest stride >= 1 at whose step
    ``fits`` (an array of steps to an array of bools) holds, or else the
    smallest with h_u at most the step (u_max - u_min) / (nodes - 1) that
    ``cfg`` asks for, which is the finest contour; the node count is the
    smallest odd one whose nodes from u_min cover u_max.  Then
    t_j z_k is the lattice point j p + k of the contour: the engine finds
    that lattice in the scalings (``ContourEngine.evaluate_blocks``), and p
    is returned for the report's ``contour.stride``.  Both steps come from
    the configs, as (hi - lo) / (count - 1).
    """
    cfg = cfg or ContourConfig()
    h_t = qcfg.step
    finest = max(1, math.ceil(h_t / ((cfg.u_max - cfg.u_min) / (cfg.nodes - 1))))
    strides = np.arange(1, finest + 1)
    fit = (strides == finest) | (False if fits is None else fits(h_t / strides))
    stride = int(strides[np.argmax(fit)])
    h_u = h_t / stride
    steps = math.ceil((cfg.u_max - cfg.u_min) / h_u)
    steps += steps % 2
    return ContourConfig(phi=cfg.phi, u_max=cfg.u_min + steps * h_u, nodes=steps + 1), stride


def check_frame_memory(T: CliffordOperator, nodes, n_g=1, contour_nodes=ContourConfig.nodes):
    """Refuse a frame stage whose stacks of quadrature-grid values would
    exceed the engine cap.  ``nodes`` is the per-sign node count of the
    grid, ``contour_nodes`` the contour's requested node count.

    Each of the n_g functions g keeps its family as spinor blocks B (16 r
    (km)^2 bytes a value).  The families are made one at a time, and the one
    in the making holds at its peak four block stacks: B, B^H, the copy of B
    the Gram of B^H reads and the Gram stack.  Its node sums (two stacks,
    ``ContourEngine._contract``) count as four too, with 4 n + 11 L reals per
    column of one block of ``_COLUMNS`` (n the nodes of a ray, L the FFT
    length of a whole sequence), above the 12 n that forming the kernels
    takes (km <= 16) and the 4 n + 7 L that correlating them does.
    """
    # the lattice contour depends on the log step of the grid only, which
    # default_quad_grid fixes whatever ||T||
    cfg, p = lattice_contour(QuadGridConfig(nodes=nodes), ContourConfig(nodes=contour_nodes))
    buffers = 8 * _COLUMNS * (4 * cfg.nodes + 11 * _smooth_size((nodes | 1) * p - p + cfg.nodes))
    r, _, k, _ = spinor_blades(T.n).shape
    stack = 16 * r * (k * T.m) ** 2 * 2 * (nodes | 1)
    need = (n_g + 4) * stack + buffers
    if need > _MAX_ENGINE_BYTES:
        raise ArgumentError(
            f"frame stage at D = {T.m << T.n} with {n_g} g needs about {need / 2 ** 30:.3g} "
            f"GiB, above {_MAX_ENGINE_BYTES / 2 ** 30:g} GiB")


@dataclass(frozen=True)
class FrameBounds(_ErrorBudget):
    """Frame constants of a family on a grid, with the error they claim
    against the integral over all t != 0: ``discretization_error`` holds
    the grid's two named terms, ``grid_rule_error`` (the trapezoid rule in
    log|t|) and ``window_tail_error`` (the t outside the grid's window),
    beside the family's own estimates."""

    c_lower: float
    d_upper: float
    theta: np.ndarray
    eigenvalues: np.ndarray
    truncation_error: float
    discretization_error: float
    grid_rule_error: float = 0.0
    window_tail_error: float = 0.0


# the exponent of the dense path's power bound of the family beyond ||T||
# and below sigma_min where the log factor of a decay of order 1 lies,
# as a fraction of min(alpha, 1) (``GridBound``)
_BETA = 0.9


def _power_sum(a, b, alpha, beta, x, h):
    """A bound on h sum'_{k >= 0} (a x_k^alpha + b x_k^beta)^2 over x_k =
    x e^(-k h), the k = 0 term halved, for arrays x too: each power sums to
    x^(2p) h / (2 tanh(p h)) (a geometric series), and the two combine by
    Minkowski's inequality; h = 0 gives the integral over log x_k < log x,
    x^(2p) / (2p) for each power."""
    def mean(p):
        return h / (2.0 * math.tanh(p * h)) if h else 0.5 / p
    with np.errstate(over="ignore"):    # inf, a claim ``FrameBounds`` refuses
        return (a * np.float_power(x, alpha) * math.sqrt(mean(alpha))
                + b * np.float_power(x, beta) * math.sqrt(mean(beta))) ** 2


class GridBound:
    """The grid's rule error and window tails for the frame of one g on the
    engine's T and contour, from its certificate's basis, sigmas and C, both
    over the two signs of t and in units of the Gram eigenvalues.

    u -> g(e^u T) continues analytically to |Im u| < b, b = (31/32)(theta -
    omega): e^(iv) turns the spectrum in the sector omega no further than
    the sector theta of g.  So the trapezoid rule of step h in u = log|t|
    errs by at most ``trapezoid_error(b, h, M)`` (``rule``) on the Gram's
    integrand g(e^u T)^H g(e^u T), with M the integral over each line of
    the strip of ||g(e^(u + iv) T)||^2 summed over both signs, a bound on
    the Gram's by Cauchy-Schwarz; and the nodes that the rule over the
    whole line takes beyond the grid's window sum to at most ``tails``.

    Eigen path (self-adjoint T): the values are g(e^w lam) with |g(s)| <=
    C_alpha min(|s|^alpha, |s|^-alpha) on g's sector, so M = 2 C_alpha^2 /
    alpha, and the tails are C_alpha^2 (x^(2 alpha) + y^(2 alpha)) h /
    tanh(alpha h) at x = t_min |lam|, y = 1 / (t_max |lam|), the largest
    over the eigenvalues (0 at lam = 0).

    Dense path: on the contour of angle phi - a (``ContourConfig.strip``),
    which holds every g(e^(iv) s) for |v| < b when b <= theta - phi + a,
    the strip taken to that, ||g(tT)|| is at most K = C C_alpha / alpha,
    with C = |s| ||S_L^-1(s, T)||.  Below sigma_min that is at most
    ``series_bounds``' |s| / (sigma_min - |s|), and beyond ||T|| the series
    of S_L^-1 - s^-1 (whose integral against g(ts) ds / s vanishes) is at
    most ||T|| / (|s| - ||T||) and C + 1 inside; split at |s| = sigma_min / 2
    and 2 ||T|| with |g| <= C_alpha x^(+-alpha) or x^(+-beta), beta = 0.9
    min(alpha, 1), this gives (2 / pi) C_alpha ((C + 1) x^alpha / alpha +
    x^beta / (1 - beta)) at x = 2 |t| ||T||, and the same with C at y = 2 /
    (|t| sigma_min).  M is their integrals below and above two points and K^2
    between, the least over a set of points; the tails are ``_power_sum``
    of the two at the window's ends, with C at phi for real t.
    """

    def __init__(self, g, engine):
        alpha, c_alpha = g.decay.alpha, g.decay.c_alpha
        self.strip = STRIP_SHARE * (g.theta - engine.omega)
        self.c_alpha, self.alpha = c_alpha, alpha
        if engine.basis is not None:
            self.lam = np.abs(engine.basis.lam).ravel()
            self.m = 2.0 * c_alpha ** 2 / alpha
            return
        self.lam = None
        self.strip = min(self.strip, g.theta - (engine.phi - engine.strip))
        self.beta = _BETA * min(alpha, 1.0)
        self.sigmas = np.array(engine.sigmas)    # sigma_min 0 gives inf, not an exception
        # C at phi - a is finite: the engine refuses a report without it
        self.c_phi, c_lower = engine.c_phi, engine.c_strip
        lo, hi, b = self._coefficients(c_lower)
        k = c_lower * c_alpha / alpha
        ends = 2.0 ** np.arange(-40.0, 6.0)
        below, above = (_power_sum(a, b, alpha, self.beta, ends, 0.0) for a in (lo, hi))
        with np.errstate(divide="ignore"):    # sigma_min = 0: M inf
            width = np.log(4.0 * self.sigmas[1] / self.sigmas[0]) - np.log(ends)
        between = k * k * np.maximum(0.0, width[:, None] - np.log(ends)[None, :])
        self.m = 2.0 * float(np.min(below[:, None] + between + above[None, :]))

    def _coefficients(self, c):
        """(a below, a above, b): the power coefficients of the dense bounds."""
        k = 2.0 / math.pi * self.c_alpha
        return k * (c + 1.0) / self.alpha, k * c / self.alpha, k / (1.0 - self.beta)

    def rule(self, h):
        """The rule error at the step h (an array too)."""
        return trapezoid_error(self.strip, h, self.m)

    def tails(self, t_min, t_max, h):
        """The window tails of the grid of step h over [t_min, t_max]."""
        alpha = self.alpha
        with np.errstate(over="ignore", divide="ignore"):   # inf, refused as a claim
            if self.lam is not None:
                lam = self.lam[self.lam > 0.0]
                ends = np.float_power(t_min * lam, 2 * alpha) + np.float_power(t_max * lam,
                                                                               -2 * alpha)
                return float(self.c_alpha ** 2 * h / math.tanh(alpha * h) * ends.max(initial=0.0))
            lo, hi, b = self._coefficients(self.c_phi)
            smin, norm = self.sigmas
            return 2.0 * float(_power_sum(lo, b, alpha, self.beta, 2.0 * t_min * norm, h)
                               + _power_sum(hi, b, alpha, self.beta, 2.0 / (t_max * smin), h))


def _grid_engine(T, report, theta, gs, qcfg=None, cfg=None):
    """(t, w, engine, stride): the frame grid and T's engine on the lattice
    contour (``lattice_contour``) of ``qcfg`` (``default_quad_grid`` if
    None), the finest grid a run may use, at the smallest stride at which
    the rule error of each g of ``gs`` fits (``rule_fits``), and at most
    that of ``cfg``.

    The grid is every q-th node of ``qcfg``, q the largest divisor of its
    steps that leaves an even count of at least 32 steps and at whose step
    ``GridBound.rule`` of each g is at most RULE_TARGET, at stride q p on
    that contour of stride p: a coarser grid never coarsens the contour."""
    _check_report(report)
    if any(g.decay is None for g in gs):
        raise PreconditionError("contour calculus requires a decay certificate")
    qcfg, cfg = qcfg or default_quad_grid(T), cfg or ContourConfig()
    lattice, stride = lattice_contour(
        qcfg, cfg, lambda steps: rule_fits(report, theta, cfg, gs, steps))
    engine = ContourEngine(T, report, theta, lattice)
    bounds = [GridBound(g, engine) for g in gs]
    steps = (qcfg.nodes | 1) - 1
    for q in range(steps // 32, 1, -1):
        if steps % q or steps // q % 2:
            continue
        grid = QuadGridConfig(qcfg.t_min, qcfg.t_max, steps // q)
        if all(b.rule(grid.step) <= RULE_TARGET for b in bounds):
            qcfg, stride = grid, q * stride
            break
    return (*qcfg.grid(), engine, stride)


def quadratic_norm(g: IntrinsicFunction, T: CliffordOperator, v: ModuleVector,
                   qcfg: QuadGridConfig | None = None,
                   cfg: ContourConfig | None = None,
                   report: BisectorReport | None = None,
                   family=None) -> float:
    """Discretized (integral of ||g(tT)v||^2 dt/|t|)^(1/2).

    Pass a precomputed ``family`` (as returned by grid + evaluate_family)
    when evaluating many vectors against one operator.
    """
    if family is None:
        t, w, engine, _ = _grid_engine(T, report, g.theta, [g], qcfg, cfg)
        family = (t, w) + engine.evaluate_family(g, t)
    _, w, mats, _, _ = family
    applied = np.einsum("kij,vj->kvi", mats, v.flatten()[None, :])
    norms2 = pairwise_sum(w[:, None] * np.einsum("kvi,kvi->kv", applied, applied))
    return float(math.sqrt(max(norms2[0], 0.0)))


def frame_operator(g: IntrinsicFunction, T: CliffordOperator,
                   qcfg: QuadGridConfig | None = None,
                   cfg: ContourConfig | None = None,
                   report: BisectorReport | None = None,
                   family=None):
    """Weighted Gram matrix Theta of the family t -> rho(g(tT)); symmetric PSD.
    Returns (Theta, truncation estimate, discretization estimate)."""
    fb = frame_bounds(g, T, qcfg, cfg, report, family)
    return fb.theta, fb.truncation_error, fb.discretization_error


def frame_bounds(g: IntrinsicFunction, T: CliffordOperator,
                 qcfg: QuadGridConfig | None = None,
                 cfg: ContourConfig | None = None,
                 report: BisectorReport | None = None,
                 family=None) -> FrameBounds:
    """Best discretized frame constants (c, d) as extreme eigenvalues of Theta.

    Theta = sum_k w_k B_k^H B_k is assembled and solved on the spinor blocks
    B_k of the family: the engine's (``family_frames``), or those of a given
    D x D ``family``; the transposed family of T, passed with T*, gives the
    frame of T*.  rho of Theta holds D / (r km) = 2^(n - n // 2) / r copies
    of each block or its conjugate, so each block eigenvalue repeats that
    often in ``eigenvalues``, and ``theta`` is mapped back to D x D.

    The error estimates scale with ||B_k|| (``module.block_norms``).  A
    given family carries its own claims: the grid's two terms
    (``GridBound``) join those of the engine's family only.
    """
    if family is None:
        t, w, engine, _ = _grid_engine(T, report, g.theta, [g], qcfg, cfg)
        return family_frames(g, engine, t, w)[0]
    _, w, mats, truncs, discs = family
    blocks = blocks_from_rho(mats, T.n)
    return _block_frame_bounds(w, _gram(w, blocks), truncs, discs, block_norms(blocks), T.n)


def family_frames(g: IntrinsicFunction, engine: ContourEngine, t, w, adjoint=False):
    """(fb, fb_star, frame): the frame bounds of T, and of T* when
    ``adjoint`` (else None), from the one family t -> g(tT) of the engine on
    the grid (t, w) of its lattice (``lattice_contour``).

    ``frame`` holds the family as ``ContourEngine.evaluate_blocks``
    returns it: the spinor blocks B_k, or their ``Diagonal``.  For
    intrinsic g, rho(g(tT*)) = rho(g(tT))^T, with blocks B_k^H: T*'s frame
    is that of the B_k^H, with the norms and the claimed errors of T.

    On the eigen path W^H B_k W = diag(d_k) + R_k, ||R_k|| <= e_k, so both
    Grams are W diag(sum_k w_k |d_k|^2) W^H up to
    sum_k w_k (2 ||d_k||inf e_k + e_k^2), and U diag(x) U^H is
    W diag(x) W^H up to delta (2 + delta) max|x|; both terms join the
    discretization estimate, as do the grid's rule error and window tails
    (``GridBound``) at the step w[1] and the window's ends of the grid,
    which is a ``QuadGridConfig.grid``.
    """
    values, truncs, discs = engine.evaluate_blocks(g, t)
    basis, n, scale = engine.basis, engine.T.n, block_norms(values)
    bound, h = GridBound(g, engine), w[1]
    grid = (float(bound.rule(h)), bound.tails(t[0], t[t.size // 2 - 1], h))
    if basis is None:
        fb_star = (_block_frame_bounds(w, _gram(w, np.swapaxes(values, -1, -2).conj()),
                                       truncs, discs, scale, n, grid=grid) if adjoint else None)
        fb = _block_frame_bounds(w, _gram(w, values), truncs, discs, scale, n, grid=grid)
        return fb, fb_star, values
    mag = np.abs(values.d)
    diag = pairwise_sum(w[:, None, None] * mag * mag)
    rest = pairwise_sum(w[:, None] * values.e * (2.0 * mag.max(axis=-1) + values.e))
    rest += basis.departure * (2.0 + basis.departure) * diag.max(axis=-1)
    fb = _block_frame_bounds(w, basis.blocks(diag), truncs, discs, scale, n, float(rest.max()),
                             grid)
    return fb, fb if adjoint else None, values


def _gram(w, blocks):
    """sum_k w_k B_k^H B_k for the spinor blocks B_k of a family."""
    grams = np.swapaxes(blocks, -1, -2).conj() @ blocks
    grams *= w[:, None, None, None]
    return pairwise_sum(grams)


def _block_frame_bounds(w, theta, truncs, discs, scale, n, rest=0.0,
                        grid=(0.0, 0.0)) -> FrameBounds:
    """``frame_bounds`` from the Gram ``theta`` of a family on the spinor
    blocks over R_n, given a bound ``scale`` on the norm of each value, which
    serves the B_k^H of T* too, a bound ``rest`` on the error of theta
    itself, and the grid's rule error and window tails ``grid``."""
    # error estimates enter the quadratic form linearly through the factors;
    # an overflow is refused as a claim (``FrameBounds``)
    with np.errstate(over="ignore", invalid="ignore"):
        trunc = float(np.dot(w, 2.0 * scale * truncs + truncs ** 2))
        disc = float(np.dot(w, 2.0 * scale * discs + discs ** 2)) + rest + grid[0] + grid[1]
    theta = 0.5 * (theta + np.swapaxes(theta, -1, -2).conj())
    lam = hermitian_eigenvalues(theta)
    eig = np.sort(np.repeat(lam.ravel(), (1 << (n - n // 2)) // lam.shape[0]))
    return FrameBounds(
        c_lower=float(math.sqrt(max(eig[0], 0.0))),
        d_upper=float(math.sqrt(max(eig[-1], 0.0))),
        theta=rho_stack(coeffs_from_blocks(theta, n), n),
        eigenvalues=eig,
        truncation_error=trunc,
        discretization_error=disc,
        grid_rule_error=grid[0],
        window_tail_error=grid[1],
    )


def sign_matrix(half_window):
    """All sign vectors of {-1, +1}^(2 half_window), one per row, enumerated."""
    width = 2 * half_window
    if width > MAX_SIGN_WINDOW:
        raise ArgumentError(
            f"sign window 2n={width} exceeds the exact enumeration cap {MAX_SIGN_WINDOW}"
        )
    count = 1 << width
    idx = np.arange(count, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(width, dtype=np.uint32)[None, :]) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


@dataclass(frozen=True)
class SignVector:
    window: tuple          # dyadic indices, length 2n
    signs: np.ndarray

    def __post_init__(self):
        if len(self.window) != len(self.signs):
            raise ArgumentError("one sign per window index required")


def sign_vectors(half_window):
    """The full enumeration of SignVector values over a dyadic window."""
    window = tuple(range(-half_window, half_window))
    return [SignVector(window, row) for row in sign_matrix(half_window)]


def dyadic_sign_identity(g: IntrinsicFunction, T: CliffordOperator,
                         v: ModuleVector, t: float, half_window: int,
                         cfg: ContourConfig | None = None,
                         report: BisectorReport | None = None,
                         engine=None):
    """Both sides of the random-sign square identity over a dyadic window.

    lhs sums ||g(t 2^k T) v||^2 over k in [-n, n); rhs averages
    ||sum_k sign_k g(t 2^k T) v||^2 over all 2^(2n) sign vectors, enumerated
    exactly.
    """
    if half_window < 1:
        raise ArgumentError("window must contain at least one dyadic index")
    signs = sign_matrix(half_window)
    if engine is None:
        _check_report(report)
        engine = ContourEngine(T, report, g.theta, cfg)
    ks = np.arange(-half_window, half_window)
    ts = t * np.exp2(ks.astype(float))
    mats, _, _ = engine.evaluate_family(g, ts)
    x = v.flatten()
    ys = np.einsum("kij,j->ki", mats, x)
    gram = ys @ ys.T
    lhs = float(np.trace(gram))
    total = 0.0
    chunk = 1 << 16
    for lo in range(0, signs.shape[0], chunk):
        a = signs[lo:lo + chunk]
        total += float(np.sum((a @ gram) * a))
    rhs = total / signs.shape[0]
    return lhs, rhs


@dataclass(frozen=True)
class DualSamples:
    times: np.ndarray
    psi: tuple
    psi_eps: tuple


def dual_select(samples) -> DualSamples:
    """Exact discrete dual family: the maximizer of Sc<psi, v> over the sphere
    of radius ||psi|| is psi itself, and zero samples stay zero."""
    times = []
    psi = []
    psi_eps = []
    for t, vec in samples:
        times.append(float(t))
        psi.append(vec)
        if vec.norm() == 0.0:
            psi_eps.append(ModuleVector.zero(vec.n, vec.m))
        else:
            psi_eps.append(ModuleVector(vec.n, vec.m, vec.coeffs.copy()))
    return DualSamples(np.asarray(times), tuple(psi), tuple(psi_eps))
