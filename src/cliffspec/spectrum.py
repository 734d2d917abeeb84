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
from dataclasses import dataclass

import numpy as np

from .clifford import Paravector, unit_imag
from .errors import ArgumentError, DimensionMismatchError, NumericalFailureError
from .module import (
    INVERTIBILITY_RTOL,
    CliffordOperator,
    OperatorSolver,
    block_form,
    coeffs_from_blocks,
    operator_norm,
    rho_matrix,
    spectral_norm,
)

_CHUNK = 128
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


def q_blocks(bt, s0, abs2):
    """Q_s = T^2 - 2 s0 T + |s|^2 on the blocks bt of rho(T), at each node.

    Yields (slice of the nodes, stack of shape (nodes, r, km, km)) for
    consecutive blocks of ``_CHUNK`` nodes.
    """
    bt2 = bt @ bt
    eye = np.eye(bt.shape[-1])
    for lo in range(0, s0.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        yield sl, (bt2 - 2.0 * s0[sl, None, None, None] * bt
                   + abs2[sl, None, None, None] * eye)


def q_inverse_stack(bt, s0, abs2):
    """Q_s^-1 on the blocks at each node as one (nodes, r, km, km) array.

    Q_s depends on s only through (s0, |s|), so one inverse serves s and
    its conjugate; raises np.linalg.LinAlgError when Q_s is exactly singular
    at a node.
    """
    out = np.empty((s0.size,) + bt.shape, dtype=complex)
    for sl, q in q_blocks(bt, s0, abs2):
        out[sl] = np.linalg.inv(q)
    return out


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


def conjugate_resolvent_bound(bt, qinv, s0, y, radius, bj):
    """max of |s| ||S_L^{-1}(s, T)|| over the nodes s = s0 + J y and their
    conjugates s0 - J y, both built from the shared qinv = Q_s^-1.

    A non-finite resolvent gives inf.
    """
    best = 0.0
    for lo in range(0, s0.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        for branch in (1.0, -1.0):
            left = _left_from_q_inverse(bt, qinv[sl], s0[sl], branch * y[sl], bj)
            if not np.all(np.isfinite(left)):
                return math.inf
            norm = spectral_norm(left).max(axis=1)
            best = max(best, float(np.max(radius[sl] * norm)))
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


@dataclass(frozen=True)
class BisectorReport:
    """Bisectoriality certificate of angle omega.

    Each C_phi in ``c_phi_table`` is the constant on the slice e_1: the
    largest sampled |s| ||S_L^-1(s, T)|| on the four boundary rays of angle
    phi with s = x + e_1 y.  The contour engine's truncation bounds need
    no more, since its conjugate-pair sum, and so its truncated tail, does
    not depend on the slice.  It is not the sup over the whole sphere S.
    """

    omega: float
    injective: bool
    c_phi_table: tuple          # pairs (phi, estimated C_phi)
    spectrum_in_sector: bool
    detections: tuple = ()      # SpectralPoints of the S-spectrum

    @property
    def certified(self) -> bool:
        """Bisectoriality certificate: spectrum containment plus finite resolvent bounds."""
        finite = all(np.isfinite(c) for _, c in self.c_phi_table)
        return bool(self.spectrum_in_sector and finite)

    def c_at(self, phi) -> float:
        """C at the largest sampled angle <= phi, which bounds C_phi since the
        table decreases in phi; inf below every sampled angle."""
        best = math.inf
        for p, c in self.c_phi_table:
            if p <= phi + 1e-12:
                best = c
        return best


def _ray_resolvent_bound(bt, phi, radii, bj):
    """max over the four boundary rays of |s| * ||S_L^{-1}(s, T)||, batched.

    The rays at angle -phi are the conjugates of those at +phi and share
    their Q_s, so only the two rays at +phi are inverted.
    """
    s0 = np.concatenate([radii * math.cos(phi), -radii * math.cos(phi)])
    y = np.concatenate([radii * math.sin(phi), -radii * math.sin(phi)])
    try:
        qinv = q_inverse_stack(bt, s0, np.tile(radii * radii, 2))
    except np.linalg.LinAlgError:
        return math.inf
    return conjugate_resolvent_bound(bt, qinv, s0, y, np.tile(radii, 2), bj)


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
    closed double sector, and estimates C_phi on the boundary rays in the
    slice e_1 of each requested larger sector.  The result is a numerical
    certificate; failures are carried in the report, but a Q_s that may
    overflow on the sampled rays raises NumericalFailureError.
    """
    if not 0.0 < omega < math.pi / 2:
        raise ArgumentError(f"omega={omega} outside (0, pi/2)")
    sampling = sampling or RaySampling()
    bt = block_form(T.coeffs, T.n)
    svals = np.linalg.svd(bt, compute_uv=False)
    sigma_max, sigma_min = float(svals[:, 0].max()), float(svals[:, -1].min())
    injective = sigma_min > INVERTIBILITY_RTOL * sigma_max
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
    radii = scale * np.logspace(-4.0, 4.0, 200)
    bj = unit_blocks(unit_imag(T.n), T.m)
    table = []
    for phi in sampling.resolved_phis(omega):
        if not omega < phi < math.pi / 2:
            raise ArgumentError(f"sampled phi={phi} outside (omega, pi/2)")
        c = _ray_resolvent_bound(bt, phi, radii, bj)
        table.append((float(phi), float(c)))
    return BisectorReport(
        omega=float(omega),
        injective=bool(injective),
        c_phi_table=tuple(table),
        spectrum_in_sector=contained,
        detections=spectrum,
    )
