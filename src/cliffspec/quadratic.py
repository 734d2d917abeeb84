"""Quadratic-norm integrals, frame bounds and the dyadic sign identity.

The square-integral of t -> ||g(tT)v|| against dt/|t| is discretized on a
log grid over both signs of t.  Assembling the weighted Gram matrix
Theta = sum_k w_k rho(g(t_k T))^T rho(g(t_k T)) turns the two-sided frame
inequality into an eigenvalue problem: the extreme eigenvalues of Theta are
the squares of the best constants for the discretized integral.

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
    _MAX_ENGINE_BYTES,
    ContourConfig,
    ContourEngine,
    _check_report,
    _ErrorBudget,
)
from .errors import ArgumentError
from .functions import IntrinsicFunction
from .module import CliffordOperator, ModuleVector, operator_norm, spectral_norm
from .quadrature import pairwise_sum, trapezoid_grid
from .spectrum import BisectorReport, check_bisectorial

MAX_SIGN_WINDOW = 20  # exact enumeration cap on 2n


@dataclass(frozen=True)
class QuadGridConfig:
    """Log-spaced |t| grid over both signs for the dt/|t| quadrature."""

    t_min: float
    t_max: float
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


def default_quad_grid(T: CliffordOperator, nodes=400) -> QuadGridConfig:
    scale = max(operator_norm(T), 1e-30)
    return QuadGridConfig(1e-5 / scale, 1e5 / scale, nodes)


def check_frame_memory(T: CliffordOperator, nodes, n_g=1, jobs=1):
    """Refuse a frame stage whose stacks of quadrature-grid matrices would
    exceed the engine cap: the kept family of each of n_g functions g and,
    per running job, the T* family, the Gram stack, its weighted copy and the
    A^T A stack of the scale (about 5 stacks with one g, measured at D = 64
    and 128).  ``nodes`` is the per-sign node count of the grid."""
    dim = T.m << T.n
    stack = 8 * dim * dim * 2 * (nodes | 1)
    need = stack * (n_g + 4 * min(jobs, n_g))
    if need > _MAX_ENGINE_BYTES:
        raise ArgumentError(
            f"frame stage at D = {dim} with {n_g} g needs about {need / 2 ** 30:.3g} "
            f"GiB, above {_MAX_ENGINE_BYTES / 2 ** 30:g} GiB")


@dataclass(frozen=True)
class FrameBounds(_ErrorBudget):
    c_lower: float
    d_upper: float
    theta: np.ndarray
    eigenvalues: np.ndarray
    truncation_error: float
    discretization_error: float


def _family(g, T, qcfg, cfg, report, family):
    """(t, w, mats, truncs, discs): the given family, or one evaluated on
    the contour engine of the report."""
    if family is not None:
        return family
    _check_report(report)
    t, w = (qcfg or default_quad_grid(T)).grid()
    return (t, w) + ContourEngine(T, report, g.theta, cfg).evaluate_family(g, t)


def weighted_norms2(w, mats, xs):
    """sum_k w_k ||M_k x||^2 for each row x of ``xs``, over the family M_k."""
    applied = np.einsum("kij,vj->kvi", mats, xs)
    norms2 = np.einsum("kvi,kvi->kv", applied, applied)
    return pairwise_sum(w[:, None] * norms2)


def quadratic_norm(g: IntrinsicFunction, T: CliffordOperator, v: ModuleVector,
                   qcfg: QuadGridConfig | None = None,
                   cfg: ContourConfig | None = None,
                   report: BisectorReport | None = None,
                   family=None) -> float:
    """Discretized (integral of ||g(tT)v||^2 dt/|t|)^(1/2).

    Pass a precomputed ``family`` (as returned by grid + evaluate_family)
    when evaluating many vectors against one operator.
    """
    t, w, mats, _, _ = _family(g, T, qcfg, cfg, report, family)
    return float(math.sqrt(max(weighted_norms2(w, mats, v.flatten()[None, :])[0], 0.0)))


def frame_operator(g: IntrinsicFunction, T: CliffordOperator,
                   qcfg: QuadGridConfig | None = None,
                   cfg: ContourConfig | None = None,
                   report: BisectorReport | None = None,
                   family=None):
    """Weighted Gram matrix Theta of the family t -> rho(g(tT)); symmetric PSD."""
    t, w, mats, truncs, discs = _family(g, T, qcfg, cfg, report, family)
    grams = np.einsum("kca,kcb->kab", mats, mats)
    theta = pairwise_sum(w[:, None, None] * grams)
    theta = 0.5 * (theta + theta.T)
    # error estimates enter the quadratic form linearly through the factors
    scale = spectral_norm(mats)
    trunc = float(np.dot(w, 2.0 * scale * truncs + truncs ** 2))
    disc = float(np.dot(w, 2.0 * scale * discs + discs ** 2))
    return theta, trunc, disc


def frame_bounds(g: IntrinsicFunction, T: CliffordOperator,
                 qcfg: QuadGridConfig | None = None,
                 cfg: ContourConfig | None = None,
                 report: BisectorReport | None = None,
                 family=None) -> FrameBounds:
    """Best discretized frame constants (c, d) as extreme eigenvalues of Theta."""
    theta, trunc, disc = frame_operator(g, T, qcfg, cfg, report, family)
    eig = np.linalg.eigvalsh(theta)
    return FrameBounds(
        c_lower=float(math.sqrt(max(eig[0], 0.0))),
        d_upper=float(math.sqrt(max(eig[-1], 0.0))),
        theta=theta,
        eigenvalues=eig,
        truncation_error=trunc,
        discretization_error=disc,
    )


def adjoint_frame_bounds(g: IntrinsicFunction, T: CliffordOperator,
                         qcfg: QuadGridConfig | None = None,
                         cfg: ContourConfig | None = None,
                         report: BisectorReport | None = None) -> FrameBounds:
    """Frame bounds of the adjoint operator (certified afresh at the angle of
    the report of T)."""
    _check_report(report)
    t_star = T.adjoint()
    return frame_bounds(g, t_star, qcfg, cfg, check_bisectorial(t_star, report.omega))


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
