"""Quadratic-norm integrals, frame bounds and the dyadic sign identity.

The square-integral of t -> ||g(tT)v|| against dt/|t| is discretized on a
log grid over both signs of t, and the family is evaluated on a contour
whose step divides the grid's (``lattice_contour``).  Assembling the
weighted Gram matrix Theta = sum_k w_k rho(g(t_k T))^T rho(g(t_k T)) turns
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
    _check_report,
    _ErrorBudget,
    _smooth_size,
    rule_fits,
)
from .clifford import spinor_blades
from .errors import ArgumentError
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
from .quadrature import pairwise_sum, trapezoid_grid
from .spectrum import BisectorReport

MAX_SIGN_WINDOW = 20  # exact enumeration cap on 2n


@dataclass(frozen=True)
class QuadGridConfig:
    """Log-spaced |t| grid over both signs for the dt/|t| quadrature; the
    default window is that of ``default_quad_grid`` at ||T|| = 1."""

    t_min: float = 1e-5
    t_max: float = 1e5
    nodes: int = 400  # per sign

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max:
            raise ArgumentError("need 0 < t_min < t_max")
        if self.nodes < 32:
            raise ArgumentError("need at least 32 nodes per sign")

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
    h_t = (math.log(qcfg.t_max) - math.log(qcfg.t_min)) / ((qcfg.nodes | 1) - 1)
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
    takes (km <= 16) and the 4 n + 7 L that correlating them does; with no
    g there is no frame stage.
    """
    # the lattice contour depends on the log step of the grid only, which
    # default_quad_grid fixes whatever ||T||
    cfg, p = lattice_contour(QuadGridConfig(nodes=nodes), ContourConfig(nodes=contour_nodes))
    buffers = 8 * _COLUMNS * (4 * cfg.nodes + 11 * _smooth_size((nodes | 1) * p - p + cfg.nodes))
    r, _, k, _ = spinor_blades(T.n).shape
    stack = 16 * r * (k * T.m) ** 2 * 2 * (nodes | 1)
    need = n_g * stack + min(1, n_g) * (4 * stack + buffers)
    if need > _MAX_ENGINE_BYTES:
        raise ArgumentError(
            f"frame stage at D = {T.m << T.n} with {n_g} g needs about {need / 2 ** 30:.3g} "
            f"GiB, above {_MAX_ENGINE_BYTES / 2 ** 30:g} GiB")


@dataclass(frozen=True)
class FrameBounds(_ErrorBudget):
    c_lower: float
    d_upper: float
    theta: np.ndarray
    eigenvalues: np.ndarray
    truncation_error: float
    discretization_error: float


def _grid_engine(T, report, theta, gs, qcfg=None, cfg=None):
    """(t, w, engine, stride): the grid (``default_quad_grid`` if None) and
    the engine of the report on its lattice contour (``lattice_contour``),
    of the smallest stride at which the rule error of each g of ``gs`` fits
    (``rule_fits``), and at most the stride of ``cfg``."""
    _check_report(report)
    qcfg, cfg = qcfg or default_quad_grid(T), cfg or ContourConfig()
    cfg, stride = lattice_contour(qcfg, cfg, lambda steps: rule_fits(report, theta, cfg, gs, steps))
    return (*qcfg.grid(), ContourEngine(T, report, theta, cfg), stride)


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

    The error estimates scale with ||B_k|| (``module.block_norms``).
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
    discretization estimate.
    """
    values, truncs, discs = engine.evaluate_blocks(g, t)
    basis, n, scale = engine.basis, engine.T.n, block_norms(values)
    if basis is None:
        fb_star = (_block_frame_bounds(w, _gram(w, np.swapaxes(values, -1, -2).conj()),
                                       truncs, discs, scale, n) if adjoint else None)
        return _block_frame_bounds(w, _gram(w, values), truncs, discs, scale, n), fb_star, values
    mag = np.abs(values.d)
    diag = pairwise_sum(w[:, None, None] * mag * mag)
    rest = pairwise_sum(w[:, None] * values.e * (2.0 * mag.max(axis=-1) + values.e))
    rest += basis.departure * (2.0 + basis.departure) * diag.max(axis=-1)
    fb = _block_frame_bounds(w, basis.blocks(diag), truncs, discs, scale, n, float(rest.max()))
    return fb, fb if adjoint else None, values


def _gram(w, blocks):
    """sum_k w_k B_k^H B_k for the spinor blocks B_k of a family."""
    grams = np.swapaxes(blocks, -1, -2).conj() @ blocks
    grams *= w[:, None, None, None]
    return pairwise_sum(grams)


def _block_frame_bounds(w, theta, truncs, discs, scale, n, rest=0.0) -> FrameBounds:
    """``frame_bounds`` from the Gram ``theta`` of a family on the spinor
    blocks over R_n, given a bound ``scale`` on the norm of each value, which
    serves the B_k^H of T* too, and a bound ``rest`` on the error of theta
    itself."""
    # error estimates enter the quadratic form linearly through the factors;
    # an overflow is refused as a claim (``FrameBounds``)
    with np.errstate(over="ignore", invalid="ignore"):
        trunc = float(np.dot(w, 2.0 * scale * truncs + truncs ** 2))
        disc = float(np.dot(w, 2.0 * scale * discs + discs ** 2)) + rest
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
