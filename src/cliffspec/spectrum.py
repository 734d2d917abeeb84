"""Pseudo-resolvent, S-resolvents, the S-spectrum and bisectoriality reports.

In the real representation rho(Q_s[T]) = (rho T - z)(rho T - zbar) with
z = s0 + i|s|, so the S-spectrum of T is eig(rho T) folded to the
half-plane y = |Im s| >= 0.  ``check_bisectorial`` certifies from those
eigenvalues.  Scans report sigma_min heatmaps of Q_s over a grid in the
pseudospectra style; they serve ``cliffspec spectrum`` only.

All of this runs on the kept spinor blocks ``bt`` of rho(T)
(``module.block_form``), not on the D x D matrix: norms are the largest
over the blocks, sigma_min the smallest, and eigenvalues are the blocks'
and their conjugates.  Every batched use of Q_s (the scan, the ray bounds,
the contour engine) goes through ``q_blocks``, which works through the
nodes in fixed blocks of ``_CHUNK`` so that no full stack of Q_s is ever
held; ``q_inverse_stack`` inverts them, once per conjugate pair s, sbar
since Q_sbar = Q_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import Paravector, unit_imag
from .errors import ArgumentError, DimensionMismatchError, NumericalFailureError
from .module import (
    INVERTIBILITY_RTOL,
    CliffordOperator,
    EigenBasis,
    OperatorSolver,
    block_form,
    coeffs_from_blocks,
    operator_norm,
    rho_matrix,
    self_adjoint_basis,
    spectral_norm,
)

_CHUNK = 128
# resolvent_bound evaluates nodes in groups of _TAIL_GROUP (_CHUNK took 45%
# more inverses on operators at D = 2 to 64); _TAIL_SLACK lies above the
# rounding of the computed sigmas (a few eps ||T||) and of the samples
_TAIL_GROUP = 32
_TAIL_SLACK = 1e-9
# a scan holds about 170 bytes a node for its heatmap whatever D (measured at
# D = 2, 8, 32), so 2^24 nodes take 2.9 GB; larger grids are refused
_MAX_SCAN_NODES = 2 ** 24


def q_operator(s: Paravector, T: CliffordOperator) -> CliffordOperator:
    """Pseudo-resolvent polynomial T^2 - 2 s0 T + |s|^2, a function of (s0, |s|) only."""
    if s.n != T.n:
        raise DimensionMismatchError("paravector and operator in different algebras")
    qc = (T @ T).coeffs - (2.0 * s.s0) * T.coeffs
    qc[np.arange(T.m), np.arange(T.m), 0] += s.abs2()
    return CliffordOperator(T.n, T.m, qc)


@dataclass(frozen=True)
class PseudoResolventPoint:
    s: Paravector
    Q: CliffordOperator
    sigma_min: float


def pseudo_resolvent_point(s: Paravector, T: CliffordOperator) -> PseudoResolventPoint:
    Q = q_operator(s, T)
    svals = np.linalg.svd(rho_matrix(Q), compute_uv=False)
    return PseudoResolventPoint(s, Q, float(svals[-1]))


def unit_blocks(unit: Paravector, m):
    """Block form of rho(J) for the slice unit J acting on every module slot."""
    return block_form(CliffordOperator.scalar_mul(unit, m).coeffs, unit.n)


def q_blocks(bt, s0, abs2, chunk=_CHUNK):
    """Q_s = T^2 - 2 s0 T + |s|^2 on the blocks bt of rho(T), at each node.

    Yields (slice of the nodes, stack of shape (nodes, r, km, km)) for
    consecutive blocks of ``chunk`` nodes.
    """
    bt2 = bt @ bt
    eye = np.eye(bt.shape[-1])
    for lo in range(0, s0.size, chunk):
        sl = slice(lo, lo + chunk)
        yield sl, (bt2 - 2.0 * s0[sl, None, None, None] * bt
                   + abs2[sl, None, None, None] * eye)


def q_inverse_stack(bt, s0, abs2):
    """Q_s^-1 on the blocks at each node as one (nodes, r, km, km) array.

    Q_s depends on s only through (s0, |s|), so one inverse serves s and
    its conjugate; raises np.linalg.LinAlgError when Q_s is exactly singular
    at a node.  Blocks of size km <= 2 are inverted in closed form over all
    nodes at once, as 1 / q or adj(Q) / det(Q); larger ones by LAPACK.
    """
    km = bt.shape[-1]
    if km > 2:
        out = np.empty((s0.size,) + bt.shape, dtype=complex)
        for sl, q in q_blocks(bt, s0, abs2):
            out[sl] = np.linalg.inv(q)
        return out
    _, q = next(q_blocks(bt, s0, abs2, s0.size))
    with np.errstate(all="ignore"):   # an inf or nan is refused by the callers
        if km == 1:
            det, adj, scale = q[..., 0, 0], 1.0, 1.0
        else:
            # Q over the power of two at its largest |entry|, exactly, so
            # that its determinant cannot overflow
            scale = np.ldexp(1.0, np.frexp(np.abs(q).max(axis=(-2, -1), keepdims=True))[1])
            q = q / scale
            det = q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]
            adj = np.stack([q[..., 1, 1], -q[..., 0, 1], -q[..., 1, 0], q[..., 0, 0]],
                           axis=-1).reshape(q.shape)
        if np.any(det == 0.0):
            raise np.linalg.LinAlgError("Singular matrix")
        return adj / det[..., None, None] / scale


def _left_from_q_inverse(bt, p, s0, y, bj):
    """Left S-resolvents s0 P - y P J - T P at s = s0 + J y, P = Q_s^-1, on blocks."""
    return (s0[:, None, None, None] * p - y[:, None, None, None] * (p @ bj)
            - bt @ p)


def left_resolvents(bt, qinv, s0, y, bj):
    """Left S-resolvents at s = s0 + J y from qinv = Q_s^-1, block by block."""
    out = np.empty_like(qinv)
    for lo in range(0, s0.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        out[sl] = _left_from_q_inverse(bt, qinv[sl], s0[sl], y[sl], bj)
    return out


def block_sigmas(bt):
    """(sigma_min, sigma_max) of rho(T) from its blocks: sigma_min = 1 / ||T^-1||
    (0 when T is not injective) and sigma_max = ||T||."""
    svals = np.linalg.svd(bt, compute_uv=False)
    return float(svals[:, -1].min()), float(svals[:, 0].max())


def series_bounds(radius, sigma_min, sigma_max):
    """Upper bounds on |s| ||S_L^-1(s, T)|| at |s| = radius from the two
    S-resolvent series, inf on the band [sigma_min, sigma_max] between them.

    Beyond ||T||, S_L^-1 = sum T^n s^(-1-n) gives 1 / (1 - ||T|| / |s|); below
    1 / ||T^-1||, S_L^-1 = -sum T^(-n-1) s^n gives rho / (1 - rho) with
    rho = |s| ||T^-1||.  Both are |s| over the distance from |s| to the band.
    """
    dist = np.maximum(radius - sigma_max, sigma_min - radius)
    out = np.full(radius.shape, math.inf)
    tail = dist > 0.0
    out[tail] = radius[tail] / dist[tail]
    return out


def resolvent_bound(bt, s0, y, radius, bj, sigmas):
    """max of |s| ||S_L^{-1}(s, T)|| over the nodes s = s0 + J y and their
    conjugates s0 - J y, which share Q_s^-1 (inverted here for the nodes
    evaluated only).

    Nodes go in decreasing order of their ``series_bounds`` (the band
    first), ``_TAIL_GROUP`` at a time, and a node is evaluated only while its
    bound times 1 + _TAIL_SLACK reaches the running max.  A skipped node's
    sample lies below its bound, so it could not raise the max: the result
    is the max of the same per-node floats as over every node.  A
    non-finite resolvent or a singular Q_s gives inf.
    """
    bounds = series_bounds(radius, *sigmas)
    order = np.argsort(-bounds, kind="stable")
    best = 0.0
    for lo in range(0, order.size, _TAIL_GROUP):
        idx = order[lo:lo + _TAIL_GROUP]
        idx = idx[bounds[idx] * (1.0 + _TAIL_SLACK) >= best]
        if idx.size == 0:
            break
        try:
            p = q_inverse_stack(bt, s0[idx], radius[idx] * radius[idx])
        except np.linalg.LinAlgError:
            return math.inf
        for branch in (1.0, -1.0):
            left = _left_from_q_inverse(bt, p, s0[idx], branch * y[idx], bj)
            if not np.all(np.isfinite(left)):
                return math.inf
            norm = spectral_norm(left).max(axis=1)
            best = max(best, float(np.max(radius[idx] * norm)))
    return best


def left_s_resolvent(s: Paravector, T: CliffordOperator) -> CliffordOperator:
    """Left S-resolvent Q_s[T]^{-1} sbar - T Q_s[T]^{-1} (sbar acting by left multiplication)."""
    OperatorSolver(rho_matrix(q_operator(s, T)), T.n, T.m).require_invertible(
        what=f"Q_s[T] at s={s!r}")
    y = s.imag_norm()
    unit = Paravector(0.0, s.svec / y if y else s.svec)
    bt = block_form(T.coeffs, T.n)
    s0 = np.array([s.s0])
    left = left_resolvents(bt, q_inverse_stack(bt, s0, np.array([s.abs2()])),
                           s0, np.array([y]), unit_blocks(unit, T.m))
    return CliffordOperator(T.n, T.m, coeffs_from_blocks(left[0], T.n))


def right_s_resolvent(s: Paravector, T: CliffordOperator) -> CliffordOperator:
    """Right S-resolvent (sbar - T) Q_s[T]^{-1}.

    It is the adjoint of the left S-resolvent of T* at sbar, since
    Q_sbar[T*] = Q_s[T]* and Q_s[T] commutes with T.
    """
    return left_s_resolvent(s.conjugate(), T.adjoint()).adjoint()


@dataclass(frozen=True)
class GridSpec:
    """Rectangle in the (x, y) half-plane with node counts, y = |Im s| >= 0."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ArgumentError("grid bounds must be finite")
        if self.nx < 1 or self.ny < 1:
            raise ArgumentError("grid needs at least one node per axis")
        if self.y_min < 0.0:
            raise ArgumentError("grid must satisfy y >= 0")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ArgumentError("grid bounds out of order")
        if self.nx * self.ny > _MAX_SCAN_NODES:
            raise ArgumentError(f"grid of {self.nx} x {self.ny} nodes exceeds "
                                f"{_MAX_SCAN_NODES} nodes; pass a coarser --grid")

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.ny)

    def step(self):
        hx = (self.x_max - self.x_min) / max(self.nx - 1, 1)
        hy = (self.y_max - self.y_min) / max(self.ny - 1, 1)
        return max(hx, hy)


@dataclass(frozen=True)
class SpectralPoint:
    """The sphere x + S y, y = |Im s| >= 0, of an S-spectrum ("real" if y = 0)."""

    x: float
    y: float

    @property
    def kind(self) -> str:
        return "real" if self.y == 0.0 else "sphere"


@dataclass(frozen=True)
class Detection(SpectralPoint):
    sigma_min: float    # at the flagged scan node


@dataclass(frozen=True)
class SpectrumScan:
    grid: GridSpec
    values: np.ndarray      # sigma_min per node, shape (ny, nx)
    detections: tuple


def _batched_sigma(bt, xs, ys):
    """sigma_min and sigma_max of rho(Q_s) on the grid, batched over nodes."""
    X, Y = np.meshgrid(xs, ys)
    x = X.ravel()
    y = Y.ravel()
    smin = np.empty(x.size)
    smax = np.empty(x.size)
    for sl, q in q_blocks(bt, x, x * x + y * y):
        svals = np.linalg.svd(q, compute_uv=False)
        smin[sl] = svals[..., -1].min(axis=1)
        smax[sl] = svals[..., 0].max(axis=1)
    return smin.reshape(X.shape), smax.reshape(X.shape)


def scan_spectrum_slice(T: CliffordOperator, grid: GridSpec,
                        tol=INVERTIBILITY_RTOL) -> SpectrumScan:
    """sigma_min heatmap of Q_s over the grid with local-minimum detections.

    A node is flagged when it is a local minimum of sigma_min (8-neighborhood,
    non-strict) and sigma_min <= tol * sigma_max at that node.
    """
    smin, smax = _batched_sigma(block_form(T.coeffs, T.n), grid.xs(), grid.ys())
    ny, nx = smin.shape
    padded = np.full((ny + 2, nx + 2), np.inf)
    padded[1:-1, 1:-1] = smin
    is_min = np.ones_like(smin, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            is_min &= smin <= padded[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]
    flagged = is_min & (smin <= tol * smax)
    xs, ys = grid.xs(), grid.ys()
    detections = []
    for iy, ix in np.argwhere(flagged):
        detections.append(Detection(float(xs[ix]), float(ys[iy]), float(smin[iy, ix])))
    return SpectrumScan(grid, smin, tuple(detections))


def default_scan_grid(T: CliffordOperator) -> GridSpec:
    """Half-plane grid covering 1.25 * max(1, ||T||) with binary-exact steps.

    The step is 1/8 so that integer and half-integer spectra land exactly on
    nodes.
    """
    norm = operator_norm(T)
    h = 0.125
    k = float(np.ceil(1.25 * max(1.0, norm) / h))   # inf when ||T|| overflows
    if not (2 * k + 1) * (k + 1) <= _MAX_SCAN_NODES:
        raise ArgumentError(
            f"default scan grid for ||T|| = {norm:.3g} exceeds {_MAX_SCAN_NODES} "
            "nodes; pass a coarser --grid")
    k = int(k)
    r = k * h
    return GridSpec(-r, r, 0.0, r, 2 * k + 1, k + 1)


@dataclass(frozen=True)
class RaySampling:
    """Sampling plan for resolvent-bound estimation on sector boundary rays."""

    phis: tuple = ()

    def resolved_phis(self, omega):
        if self.phis:
            return tuple(sorted(self.phis))
        return tuple(omega + k * (math.pi / 2 - omega) / 6.0 for k in range(1, 6))


def self_adjoint_c_phi(phi) -> float:
    """sqrt 2 / sin phi, a bound on |s| ||S_L^-1(s, T)|| off the double
    sector of angle phi for every self-adjoint T and every slice unit J.

    With A = s0 - T and y = |Im s| = |s| sin phi, S_L^-1 = A P - y P J,
    P = (A^2 + y^2)^-1, is the row [A P, -y P] applied to (v, J v), whose
    norm is sqrt 2 ||v||; the row has norm ||P (A^2 + y^2) P||^(1/2) =
    ||P||^(1/2) <= 1 / y.
    """
    return math.sqrt(2.0) / math.sin(phi)


@dataclass(frozen=True)
class BisectorReport:
    """Bisectoriality certificate of angle omega, with T's ``sigmas`` =
    (sigma_min, ||T||) of its blocks and ``basis``, their
    ``module.self_adjoint_basis`` (neither compared nor serialized), which
    later stages read and from which ``injective`` and ``c_phi_source`` derive.

    ``c_phi_source`` says where each C_phi in ``c_phi_table`` comes from.
    For a T with a basis ("self_adjoint_bound") it is
    ``self_adjoint_c_phi``, a bound over the whole sphere S, which ``c_at``
    gives at every angle, in the table or not.  Otherwise
    ("sampled") it is the constant on the slice e_1: the largest sampled
    |s| ||S_L^-1(s, T)|| on the four boundary rays of angle phi with
    s = x + e_1 y, the same float whether or not the samples that
    ``resolvent_bound`` rules out are computed.  The contour engine's
    truncation bounds need no more, since its conjugate-pair sum, and so
    its truncated tail, does not depend on the slice; but the sampled C is
    not the sup over the whole sphere S.
    """

    omega: float
    c_phi_table: tuple          # pairs (phi, C_phi)
    spectrum_in_sector: bool
    sigmas: tuple               # (sigma_min, ||T||)
    detections: tuple = ()      # SpectralPoints of the S-spectrum
    basis: EigenBasis | None = field(default=None, compare=False, repr=False)

    @property
    def injective(self) -> bool:
        return bool(self.sigmas[0] > INVERTIBILITY_RTOL * self.sigmas[1])

    @property
    def c_phi_source(self) -> str:
        return "sampled" if self.basis is None else "self_adjoint_bound"

    @property
    def certified(self) -> bool:
        """Bisectoriality certificate: spectrum containment plus finite resolvent bounds."""
        finite = all(np.isfinite(c) for _, c in self.c_phi_table)
        return bool(self.spectrum_in_sector and finite)

    def c_at(self, phi) -> float:
        """C_phi of a self-adjoint T, the closed form at every phi; otherwise C
        at the largest sampled angle <= phi, which bounds C_phi since the
        table decreases in phi, and inf below every sampled angle.  A caller
        that reads C at phi certifies at phi: ``RaySampling(phis=(phi,))``."""
        if self.basis is not None:
            return self_adjoint_c_phi(phi)
        best = math.inf
        for p, c in self.c_phi_table:
            if p <= phi + 1e-12:
                best = c
        return best


def s_spectrum(bt, norm) -> tuple:
    """The S-spectrum of T as SpectralPoints: eig(rho T) folded to y >= 0.

    eig(rho T) is the blocks' eigenvalues and their conjugates, and the fold
    maps a conjugate onto its partner, so the blocks' eigenvalues suffice.
    Blocks may repeat an eigenvalue, so points within
    INVERTIBILITY_RTOL * norm merge into the first in (y, x) order; a point
    that close to the real axis merges with its mirror image and is real.
    """
    lam = np.linalg.eigvals(bt).ravel()
    radius = INVERTIBILITY_RTOL * norm
    ys = np.where(np.abs(lam.imag) <= radius, 0.0, np.abs(lam.imag))
    points = []
    for y, x in sorted(zip(ys.tolist(), lam.real.tolist())):
        if all(math.hypot(x - p.x, y - p.y) > radius for p in points):
            points.append(SpectralPoint(x, y))
    return tuple(points)


def check_bisectorial(
    T: CliffordOperator,
    omega: float,
    sampling: RaySampling | None = None,
) -> BisectorReport:
    """Certify or refute bisectoriality of angle omega for the user's candidate.

    Checks injectivity of rho(T), containment of the S-spectrum in the
    closed double sector, and gives C_phi for each requested larger sector.
    For a self-adjoint T (``module.self_adjoint_basis``) C_phi is the closed
    form ``self_adjoint_c_phi`` and no resolvent is formed.  Otherwise it is
    estimated on the boundary rays in the slice e_1, as the largest sample
    at 200 radii on 4 rays; a radius outside [sigma_min, ||T||] is
    evaluated only if its series bound could reach that largest sample
    (``resolvent_bound``).  The result is a numerical certificate; failures
    are carried in the report, but a Q_s that may overflow on the sampled
    rays raises NumericalFailureError, on both paths.
    """
    if not 0.0 < omega < math.pi / 2:
        raise ArgumentError(f"omega={omega} outside (0, pi/2)")
    phis = (sampling or RaySampling()).resolved_phis(omega)
    for phi in phis:
        if not omega < phi < math.pi / 2:
            raise ArgumentError(f"sampled phi={phi} outside (omega, pi/2)")
    bt = block_form(T.coeffs, T.n)
    sigma_min, sigma_max = block_sigmas(bt)
    spectrum = s_spectrum(bt, sigma_max)
    # the closed double sector, with 1e-9 rad of angular slack
    angles = [math.atan2(p.y, p.x) for p in spectrum]
    contained = all(a <= omega + 1e-9 or a >= math.pi - omega - 1e-9 for a in angles)

    # 200 log-spaced radii per ray from 1e-4 to 1e4 times max(1, ||T||)
    scale = max(1.0, sigma_max)
    r_max = scale * 1e4
    # every entry of T^2, 2 s0 T and |s|^2, and of their partial sums, is at
    # most (||T|| + |s|)^2; the factor 2 leaves room for rounding
    bound = r_max + sigma_max
    if not math.isfinite(2.0 * bound * bound):
        raise NumericalFailureError("Q_s overflows on the sampled rays", node={"r": r_max})
    basis = self_adjoint_basis(bt)
    if basis is not None:
        table = [(float(phi), self_adjoint_c_phi(phi)) for phi in phis]
    else:
        radii = scale * np.logspace(-4.0, 4.0, 200)
        bj = unit_blocks(unit_imag(T.n), T.m)
        table = []
        for phi in phis:
            # the rays at angle -phi are the conjugates of those at +phi and
            # share their Q_s, so only the two rays at +phi are inverted
            s0, y = radii * math.cos(phi), radii * math.sin(phi)
            c = resolvent_bound(bt, np.concatenate([s0, -s0]), np.concatenate([y, -y]),
                                np.tile(radii, 2), bj, (sigma_min, sigma_max))
            table.append((float(phi), float(c)))
    return BisectorReport(
        omega=float(omega),
        c_phi_table=tuple(table),
        spectrum_in_sector=contained,
        sigmas=(sigma_min, sigma_max),
        detections=spectrum,
        basis=basis,
    )
