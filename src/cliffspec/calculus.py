"""Functional calculi for bisectorial Clifford-module operators.

The decay-class calculus integrates the left S-resolvent against the
function along the four boundary rays of a double sector inside one slice,
parametrized with r = +-exp(u) so the quadrature runs on a uniform log
grid.  Resolvent data is precomputed once per (operator, contour) pair and
reused for every function and every scaling parameter, which makes whole
families f(tT) cheap: only the scalar factors change between nodes.

Error accounting: the truncation estimate comes from the decay certificate
and the certificate's C_phi at the contour angle; the discretization
estimate is the gap between the sums over the even and the odd nodes plus a
roundoff bound of the value (see ``ContourEngine._contract``), plus the
a-priori bound of the trapezoid rule in the contour's analyticity strip
(``ContourEngine.rule_error``), and for the f_ab ladder an a-priori bound
of its rule in t (``f_ab_node_error``).  The strip also sets how many nodes
a run takes (``rule_fits``).

Families whose distinct |t| are consecutive points of the contour's log
lattice (the grids of ``quadratic.lattice_contour`` are) read their profile
values off one sequence per ray, since t_j z_k then depends on j and k only
through a lattice index, and their sums over the even and the odd nodes are
FFT correlations of the parity phases of those sequences and of the kernels
fa P, -fb T P (``lattice_correlations``); the f_ab ladder integrates on the
same lattice (``f_ab_nodes``).  Values off the lattice are sums at lag 0,
one product of the weighted profile values with P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import spinor_blades, unit_imag
from .errors import (
    ArgumentError,
    NumericalFailureError,
    PreconditionError,
)
from .functions import (
    IntrinsicFunction,
    arctan_tails,
    product_function,
    regularizer,
    scale_function,
)
from .module import (
    CliffordOperator,
    OperatorSolver,
    block_form,
    block_norms,
    coeffs_from_blocks,
    operator_from_real,
    rho_matrix,
    rho_stack,
    self_adjoint_basis,
    spectral_norm,
)
from .quadrature import gl_cell_rule, gl_panel_grid, trapezoid_error, trapezoid_grid
from .spectrum import (
    _CHUNK,
    BisectorReport,
    RaySampling,
    check_bisectorial,
    left_resolvents,
    q_inverse_stack,
    unit_blocks,
)

# the stored resolvent stack and one block of profile values are refused
# beyond this size, before anything is allocated
_MAX_ENGINE_BYTES = 2 ** 31
_COLUMNS = 32   # columns of the stored resolvents per block of lattice kernels
# the rule error a run's contour is chosen for (``rule_fits``): a tenth of the
# floor 1e-9 that ``combined_tolerance`` adds to the frame records
RULE_TARGET = 1e-10


@dataclass(frozen=True)
class ContourConfig:
    """Contour and quadrature choices for the slice integral.

    phi = None resolves to the midpoint of (omega, theta) at call time.
    ``nodes`` per ray, rounded up to an odd number, is the finest contour a
    run may use: the even and the odd nodes then give the two halves of the
    even/odd estimate, and ``calc``, ``frame`` and ``verify`` take fewer
    where the rule's a-priori error already meets ``RULE_TARGET``
    (``rule_fits``).
    """

    phi: float | None = None
    u_max: float = 30.0
    nodes: int = 2000
    u_min = -30.0  # a constant, not a field: every contour starts at u = log r = -30

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

    def strip(self, omega, theta):
        """a = (31/32) min(phi - omega, theta - phi): turning the rays by any
        angle below a keeps them off the sector of omega and inside the
        sector theta of the functions, so the integrand in u = log r is
        analytic in the strip |Im u| < a, with its resolvent bounded by C at
        phi - a (``ContourEngine.rule_error``)."""
        phi = self.resolve_phi(omega, theta)
        return 31.0 / 32.0 * min(phi - omega, theta - phi)

    def contour_angles(self, omega, theta):
        """(phi - a, phi), the angles at which a certificate must give C for
        an engine on this contour: its truncation reads C at phi, its rule
        error C at the strip's lower edge."""
        phi = self.resolve_phi(omega, theta)
        return phi - self.strip(omega, theta), phi


class _ErrorBudget:
    """The error a result claims: its truncation plus discretization
    estimate, refused with NumericalFailureError when either is not finite,
    since an infinite tolerance would pass any check."""

    def __post_init__(self):
        if not (math.isfinite(self.truncation_error)
                and math.isfinite(self.discretization_error)):
            raise NumericalFailureError(
                f"the claimed error is not finite (truncation {float(self.truncation_error)!r}, "
                f"discretization {float(self.discretization_error)!r})")

    @property
    def combined_error(self):
        return combined_tolerance(self, floor=0.0)


@dataclass(frozen=True)
class CalculusResult(_ErrorBudget):
    op: CliffordOperator
    truncation_error: float
    discretization_error: float


def combined_tolerance(*results, floor=1e-9):
    """The claims of ``results`` plus a roundoff floor, summed in one order: each
    result's truncation, then its discretization estimate, left to right; ``floor`` last."""
    tol = 0.0
    for r in results:
        tol = tol + r.truncation_error + r.discretization_error
    return tol + floor


def _smooth_size(length):
    """The least 2, 3, 5-smooth integer >= length, a fast FFT length."""
    while math.gcd(length, 30 ** 64) != length:
        length += 1
    return length


def lattice_correlations(spectra, kernels, size, stride, rows):
    """(S_0, S_1), (2, ..., rows, columns): S_q(j) = sum_r sum_{k = q mod 2}
    s[..., r, j stride + k] K[r, k] over the channels r, from ``spectra``
    conj(rfft(s[..., c::2], size)) (phase c, ..., r, frequency) and
    ``kernels`` K[r, 2 m + q] (q, column, r, m).  S_q(j) reads phase
    c = (j stride + q) mod 2 at lag floor((j stride + q) / 2); each pair
    (c, q) takes one inverse FFT of its products summed over r, which is the
    correlation reversed in time, read at -lag mod ``size``."""
    kspectra, j = np.fft.rfft(kernels, size), np.arange(rows)
    out = np.empty((2, *spectra.shape[1:-2], rows, kernels.shape[1]))
    for c, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        js = np.flatnonzero((j * stride + q) % 2 == c)
        if js.size:    # an even stride needs the pairs c = q only
            prod = np.einsum("...rf,krf->...kf", spectra[c], kspectra[q])
            lags = -((js * stride + q) // 2) % size
            out[q][..., js, :] = np.fft.irfft(prod, size)[..., lags].swapaxes(-1, -2)
    return out


def lattice_roundoff(seqs, norms, fold):
    """A bound on the 2-norm of the error of a phase pair of
    ``lattice_correlations`` of the phases ``seqs`` (..., channels, length)
    at the FFT length ``_smooth_size(length)``, over all lags and columns at
    each index of the leading axes, the largest over them, given norms[r, k]
    >= ||K[r, k]||_2 and kernels formed within fold[r] norms[r, k] of K.

    An FFT of length L computed with twiddle factors within mu of the
    exact roots of unity has a normwise relative error of at most
    mu_L = log2(L) eta / (1 - log2(L) eta), eta = mu + gamma_4 (sqrt 2 + mu)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Theorem
    24.2).  The correlation is irfft(rfft(s) conj(rfft(K))), where
    ||rfft s||_2 <= sqrt L ||s||_2 and max|rfft K| <= ||K||_1, so the three
    transforms and the products contribute, to first order and per column,
    (2 mu_L + sqrt 2 gamma_2) ||s||_2 ||K||_1 + mu_L ||s||_1 ||K||_2; summed
    over the channels, over the columns by Minkowski's inequality, and with
    the sum of at most 4 channels (within gamma_3(u) < mu_L at L >= 2) and
    the second-order terms taken up by (3 mu_L + 2 gamma_2) ||s||_2 sum_k
    ||K_k|| + mu_L ||s||_1 (sum_k ||K_k||^2)^(1/2) per channel, at the norms
    (1 + fold) norms of the kernels as formed; their error adds ||s||_2
    sum_k fold norms_k by Young's inequality, as a last rounding of each
    value by relative fold does.

    gamma_k = k eps / (1 - k eps) with eps = 2^-52, twice the unit roundoff,
    as in the rest of this module.  Assumed: numpy's FFT (pocketfft) has
    twiddle factors within mu = eps of the exact ones (its transform of a
    unit impulse, one twiddle product per pass, is within 3 eps at the
    lengths used here), and the radix-2 theorem holds with log2(L) for its
    mixed-radix passes (2, 3, 4, 5) and real transforms.  The tests check
    the bound against long-double direct correlations.
    """
    eps = np.finfo(float).eps
    gamma2, gamma4 = (k * eps / (1.0 - k * eps) for k in (2, 4))
    eta = math.log2(_smooth_size(seqs.shape[-1])) * (eps + gamma4 * (math.sqrt(2.0) + eps))
    mu, fold = eta / (1.0 - eta), np.asarray(fold)[:, None]
    coef = (3.0 * mu + 2.0 * gamma2) * (1.0 + fold) + fold
    bound = (np.linalg.norm(seqs, axis=-1) @ (coef * norms).sum(axis=-1)
             + mu * np.abs(seqs).sum(axis=-1) @ np.linalg.norm((1.0 + fold) * norms, axis=-1))
    return float(bound.max())


def _direct_roundoff(rows, norms):
    """gamma_N |rows| @ norms, N = norms.size = 2n, bounds the Frobenius norm
    of the roundoff of the lag-0 sums (rows * (s fa)) @ P of ``_contract``,
    given norms_k >= ||fa_k P_k||_F (Higham, Accuracy and Stability, 3.1):
    s fa is exact (s = +-1), and each term rounds N + 1 times, in its two
    products and at most N - 1 sums, within gamma_{N+1}(u) <= gamma_{2N}(u)
    = gamma_N(eps) at u = 2^-53, eps = 2^-52 as in the rest of this module."""
    terms = norms.size * np.finfo(float).eps
    return (terms / (1.0 - terms) * (np.abs(rows) @ norms)).ravel()


def _stored_nodes(cfg):
    """Number of nodes the engine stores: those of the two rays at angle +phi."""
    return 2 * (cfg.nodes | 1)


def check_engine_memory(T: CliffordOperator, cfg: ContourConfig):
    """Refuse an engine on the contour of ``cfg`` whose stored resolvent
    stack or one block of profile values would pass the cap, before
    anything is allocated."""
    r, _, k, _ = spinor_blades(T.n).shape
    stored = _stored_nodes(cfg)
    need = 16 * stored * max(r * (k * T.m) ** 2, _CHUNK)
    if need > _MAX_ENGINE_BYTES:
        raise ArgumentError(
            f"contour engine with {stored} stored nodes at D = {T.m << T.n} needs "
            f"{need / 2 ** 30:.3g} GiB, above {_MAX_ENGINE_BYTES / 2 ** 30:g} GiB; "
            "use fewer nodes")


class ContourEngine:
    """Precomputed resolvent data along the contour for one operator.

    evaluate_blocks(f, ts) integrates f(t s) against the stored resolvents
    for a whole vector of scalings; evaluate_family and evaluate map to rho.

    The nodes z on the two rays at angle -phi are the conjugates of those at
    +phi.  Q_s depends on s only through (Re s, |s|) and every profile has
    F(conj z) = conj F(z), so each conjugate pair of left resolvents sums to
    alpha P - T beta P with real alpha, beta and P = Q_s^-1, which holds no
    slice unit J.  Only P at the nodes of angle +phi is stored, on the
    spinor blocks of rho (``module.block_form``), where the values stay.

    When T is self-adjoint (``module.self_adjoint_basis``), ``basis`` holds
    one eigenbasis U per block, P = U diag(1 / (lam^2 - 2 s0 lam + |s|^2))
    U^H is stored as its diagonals (nodes, r, km), and each value comes out
    as its ``module.Diagonal``, with norm bounds max|d| + e; ``dense_blocks``
    assembles blocks for the callers that ask.  Otherwise ``basis`` is
    None and P is the dense inverse (nodes, r, km, km).

    The truncation bounds take C_phi from the certificate alone,
    ``report.c_at(phi)``, and the rule error C at the lower edge phi - a of
    the contour's strip (``ContourConfig.strip``); a report that gives no C
    there, one sampled only above phi - a, is refused, and the engine
    samples nothing itself.
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
        self.strip = cfg.strip(report.omega, float(theta))
        # C at phi - a bounds C at phi: a finite one has a sampled angle below both
        self.c_phi, self.c_strip = (report.c_at(p) for p in (self.phi, self.phi - self.strip))
        if math.isinf(self.c_strip):
            raise PreconditionError(
                f"the certificate gives no C at phi - a={self.phi - self.strip:.6g}, the lower "
                f"edge of the strip of the contour angle phi={self.phi:.6g}, below every "
                "angle it sampled; certify at phi - a and phi")

        check_engine_memory(T, cfg)
        self._bt = block_form(T.coeffs, T.n)
        n = cfg.nodes | 1
        u, w_ray = trapezoid_grid(cfg.u_min, cfg.u_max, n)
        # the step in u, from the config as linspace takes it: u[1] - u[0]
        # drifts by 1e-13 relative, which lattice positions far along would
        # multiply by their index
        self.step = (cfg.u_max - cfg.u_min) / (n - 1)
        # nodes are stored ray by ray, each in u order, so that a ray's nodes
        # are the lags of a correlation with its profile sequence
        self.u_ray = u
        sign = np.repeat([1.0, -1.0], n)
        self.u = np.tile(u, 2)
        r = np.exp(self.u)
        self.z = sign * r * np.exp(1j * self.phi)
        # weight in u, dr = e^u du, 1/(2 pi) and the direction sign e^{i phi} i
        # of node z: z and conj z sum to alpha P - T beta P, alpha = fa Im F
        # and beta = fb Im(e^{i phi} F) (``_contract``)
        weight = np.tile(w_ray, 2) * r
        self._fa = -weight * r / math.pi
        self._fb = -weight * sign / math.pi

        # rho(J) on the slice e_1, for the assembled A
        self._bj = unit_blocks(unit_imag(T.n), T.m)
        self.basis = self_adjoint_basis(self._bt)
        s0, abs2 = np.real(self.z), r * r
        if self.basis is None:
            try:
                self.P = q_inverse_stack(self._bt, s0, abs2)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(
                    "pseudo-resolvent singular on the contour (operator spectrum "
                    "touches the integration rays)",
                    node={"phi": self.phi},
                ) from exc
        else:
            lam = self.basis.lam
            with np.errstate(divide="ignore"):
                self.P = 1.0 / (lam * lam - 2.0 * s0[:, None, None] * lam + abs2[:, None, None])
        if not np.all(np.isfinite(self.P)):
            bad = int(np.argwhere(~np.isfinite(self.P))[0][0])
            raise NumericalFailureError(
                "non-finite resolvent value on the contour",
                node={"u": float(self.u[bad]), "sign": float(sign[bad])},
            )
        # the real view keeps the node sums real: (nodes, columns)
        self._p_flat = self.P.view(np.float64).reshape(self.P.shape[0], -1)
        p_fro = np.sqrt(np.einsum("ij,ij->i", self._p_flat, self._p_flat))
        if self.basis is not None:
            # ||U diag(p) U^H||_F <= ||U||^2 ||p||_2, ||U|| <= 1 + delta
            p_fro *= (1.0 + self.basis.departure.max()) ** 2
        # ||fa_k P_k||_F and ||T|| ||fb_k P_k||_F (part, ray, node) bound the roundoff
        t_norm = float(spectral_norm(self._bt).max())
        self._k_fro = (np.abs([self._fa, t_norm * self._fb]) * p_fro).reshape(2, 2, n)

    @property
    def A(self):
        """Left S-resolvents at the stored nodes on the slice e_1, as
        (nodes, D, D), assembled from P on each call."""
        p = self.P if self.basis is None else self.basis.blocks(self.P)
        left = left_resolvents(self._bt, p, np.real(self.z), np.imag(self.z), self._bj)
        return rho_stack(coeffs_from_blocks(left, self.T.n), self.T.n)

    def truncation_bound(self, decay, t=1.0):
        """The truncation estimate of f(t T) at each t of a scalar or an array."""
        alpha, c_alpha = decay.alpha, decay.c_alpha
        if not math.isfinite(c_alpha):    # inf or nan at every t: refused before any profile
            raise NumericalFailureError(f"the claimed error is not finite (C_alpha {c_alpha:g})")
        with np.errstate(over="ignore"):    # b = inf has the tail 0
            a, b = (np.abs(t) * math.exp(u) for u in (self.cfg.u_min, self.cfg.u_max))
        return 2.0 * self.c_phi * c_alpha * arctan_tails(a, b, alpha) / (math.pi * alpha)

    def rule_error(self, decay, windows=1.0):
        """``trapezoid_error`` at the engine's step for f(tT), any t, of a
        function with the certificate ``decay``; ``windows`` (an array too)
        times that for its parameter integrals (``f_ab_operators``).  In the
        strip (``ContourConfig.strip``) |z| ||S_L^-1(z)|| <= C at phi - a, and
        the decay bound of f(t z) integrates over u to C_alpha pi / (2 alpha)
        whatever t: over four rays, with 1 / (2 pi), M = C C_alpha / alpha."""
        return trapezoid_error(self.strip, self.step, windows * _rule_bound(self.c_strip, decay))

    def evaluate(self, f: IntrinsicFunction):
        """Real-representation matrix of f(T) with error estimates."""
        mats, truncs, discs = self.evaluate_family(f, [1.0])
        return mats[0], float(truncs[0]), float(discs[0])

    def evaluate_family(self, f: IntrinsicFunction, ts):
        """``evaluate_blocks`` with the values mapped to rho."""
        values, truncs, discs = self.evaluate_blocks(f, ts)
        mats = rho_stack(coeffs_from_blocks(self.dense_blocks(values), self.T.n), self.T.n)
        return mats, truncs, discs

    def dense_blocks(self, values):
        """The spinor blocks (values, r, km, km) of values from ``evaluate_blocks``."""
        return values if self.basis is None else self.basis.blocks(values.d)

    def evaluate_blocks(self, f: IntrinsicFunction, ts):
        """f(t T) for a whole vector of nonzero finite scalings, with their
        truncation and discretization estimates, the rule error included:
        as spinor blocks (values, r, km, km), or on the eigen path as their
        ``Diagonal``.

        The profile is evaluated once per distinct |t| and node of the two
        rays, or, when the distinct |t| lie on the contour's log lattice,
        once per lattice point on each ray (``_windows``), and the family is
        then one correlation of those sequences (``_contract``).
        """
        if f.decay is None:
            raise PreconditionError("contour calculus requires a decay certificate")
        ts = np.asarray(ts, dtype=float).ravel()
        bad = ~np.isfinite(ts) | (ts == 0.0)
        if np.any(bad):
            raise ArgumentError(f"scaling t={ts[bad][0]} must be nonzero and finite")
        truncs = self.truncation_bound(f.decay, ts)
        values = None
        discs = np.empty(ts.size)
        mags, which = np.unique(np.abs(ts), return_inverse=True)
        for lo, hi, parts, p in self._windows(f, ts, mags, which):
            rows = np.flatnonzero((which >= lo) & (which < hi))
            neg = ts[rows] < 0.0
            signs = np.unique(neg).tolist()
            sums, estimates = self._contract(parts, signs, p)
            picks = np.searchsorted(signs, neg) * (hi - lo) + which[rows] - lo
            if values is None:
                values = np.empty((ts.size, *sums.shape[1:]), dtype=sums.dtype)
            values[rows], discs[rows] = sums[picks], estimates[picks]
        return self._values(values), truncs, discs + self.rule_error(f.decay)

    def _stride(self, mags):
        """p if the sorted distinct |t| ``mags`` are consecutive lattice
        points exp(x_0 + j p h), 1 <= p <= n, else None."""
        if mags.size < 2:
            return None
        x = np.log(mags)
        p = int(np.rint((x[-1] - x[0]) / ((mags.size - 1) * self.step)))
        drift = np.abs(x - (x[0] + np.arange(mags.size) * (p * self.step)))
        tol = 64 * np.finfo(float).eps * (abs(x[0]) + abs(x[-1]) + mags.size)
        return p if 1 <= p <= self.u_ray.size and drift.max() <= tol else None

    def _windows(self, f, ts, mags, which):
        """(lo, hi, (Im F, Im(e^{i phi} F)), p) per block of the distinct |t|,
        each part (2 rays, hi - lo, n) at |t_j| e^{u_min + k h} (+-e^{i phi});
        on the lattice (``_stride``) one sequence (2 rays, (J - 1) p + n)."""
        n, p = self.u_ray.size, self._stride(mags)

        def node(j, k):
            # the |t| of the distinct |t_j| and the node u_k of a non-finite value
            return {"u": float(self.u_ray[k]), "t": float(ts[which == j][0])}

        if p is not None:
            def lattice_node(_, i):
                # lattice point i belongs to the first |t_j| whose window holds it
                j = min(max(0, -(-(i - n + 1) // p)), mags.size - 1)
                return node(j, i - j * p)

            x = self.cfg.u_min + math.log(mags[0]) + self.step * np.arange((mags.size - 1) * p + n)
            parts = self._parts(self._sample(f, np.exp(x[None]), lattice_node))
            yield 0, mags.size, [part[:, 0] for part in parts], p
            return
        for lo in range(0, mags.size, _CHUNK):
            hi = min(lo + _CHUNK, mags.size)
            x = self.cfg.u_min + np.log(mags[lo:hi])[:, None] + self.step * np.arange(n)
            vals = self._sample(f, np.exp(x), lambda j, k: node(lo + j, k))
            yield lo, hi, self._parts(vals), None

    def _sample(self, f, r, node):
        """F at +-r e^{i phi}, (2, *r.shape), the one place where a profile is
        evaluated on the contour: a function whose sector does not hold the
        contour raises ArgumentError unprofiled, and a non-finite value at
        r[i] NumericalFailureError at node(*i)."""
        if not self.phi < f.theta:
            raise ArgumentError(f"the contour angle phi={self.phi:.6g} lies outside the "
                                f"sector theta={f.theta:.6g} of the {f.kind} function")
        z = r * np.exp(1j * self.phi)
        vals = f.eval_complex(np.stack([z, -z]))
        if not np.all(np.isfinite(vals)):
            raise NumericalFailureError("non-finite function value on the contour",
                                        node=node(*np.argwhere(~np.isfinite(vals))[0][1:]))
        return vals

    def _parts(self, vals):
        """Im F and Im(e^{i phi} F) of the profile values ``vals``."""
        return vals.imag, (np.exp(1j * self.phi) * vals).imag

    def _contract(self, parts, signs, p=None):
        """(sums as ``_combine`` gives them, discretization estimates) of one
        block of values, rows for each sign in ``signs`` (True for t < 0) in
        turn, from ``parts`` Im F, Im(e^{i phi} F) in u order: (2 rays,
        length) on the lattice of stride p, else (2 rays, values, n) or
        (2 rays, batch, values, n), rows in (batch, sign, value) order.  The
        norm of S_0 - S_1, the sums over the even and the odd nodes, estimates
        the error of S_0 + S_1 against the rule 2 S_0, plus a roundoff bound.

        At lag 0 the node sums of alpha_k = fa_k Im F (beta_k = fb_k Im(e^{i
        phi} F)) are one GEMM per part and batch entry, stacked, so that each
        rounds as it would alone, its rows over (ray, node) weighted by fa
        (fb) P and by the alternating (for +-(S_0 - S_1)) and plain signs.  On
        the lattice S_0 and S_1 are ``lattice_correlations`` of the kernels
        fa P, -fb T P (``_kernels``) per block of ``_COLUMNS`` columns."""
        n, length = self.u_ray.size, parts[0].shape[-1]
        # per sign, the parts the + and the - ray nodes read: -|t| z = |t| (-z)
        seqs = [np.stack([part[[flip, 1 - flip]] for flip in map(int, signs)]) for part in parts]
        alternate = np.where(np.arange(length) % 2, -1.0, 1.0)
        if p is None:
            # (batch, sign and value, ray and node), ``rows`` per batch entry
            rows = len(signs) * parts[0].shape[-2]
            flat = [np.moveaxis(seq, (0, 1), (-4, -2)).reshape(-1, 1, rows, 2 * n) for seq in seqs]
            # the alternating and the plain rows of both parts in one product each
            signed = np.stack([np.tile(alternate, 2), np.ones(2 * n)])[:, None]
            sums = self._combine(*(
                (seq * (signed * weight)).reshape(len(seq), -1, 2 * n) @ self._p_flat
                for seq, weight in zip(flat, (self._fa, self._fb))))
            rest = sums.shape[1:]
            alt, plain = sums.reshape(-1, 2, rows, *rest).swapaxes(0, 1).reshape(2, -1, *rest)
            roundoff = sum(map(_direct_roundoff, flat, self._k_fro.reshape(2, -1)))
            return plain, block_norms(self._values(alt)) + roundoff

        rows, half = (length - n) // p + 1, (length + 1) // 2
        size = _smooth_size(half)
        # node 2 i + c at (phase c, sign, part and ray, i), padded with a 0
        padded = np.pad(np.stack(seqs, axis=1), [(0, 0)] * 3 + [(0, length % 2)])
        phases = np.moveaxis(padded.reshape(len(signs), 4, half, 2), -1, 0)
        spectra = np.fft.rfft(phases, size).conj()
        # kernels within fold norms: fa P by u, T P by gamma_km sqrt(km) ||T|| ||P||_F
        # (Higham, 3.5), -fb T P by u more; u more each for S_0 +- S_1
        eps, km = np.finfo(float).eps, self._bt.shape[-1]
        fold = np.repeat([eps, math.sqrt(km) * (km + 1) * eps / (1.0 - (km + 1) * eps)], 2)
        pairs = np.array([[lattice_roundoff(phases[c], self._k_fro[..., q::2].reshape(4, -1),
                                            fold) for q in (0, 1)] for c in (0, 1)])
        c = np.arange(rows) * p % 2    # value j takes the pairs (c, 0) and (1 - c, 1)
        roundoff = np.tile(pairs[c, 0] + pairs[1 - c, 1], len(signs))

        cols = np.arange(self._p_flat.shape[1])
        if self.basis is None:    # by column l of P_r, so that a block's T P reads its l only
            cols = cols.reshape(*self._bt.shape, 2).transpose(0, 2, 1, 3).ravel()
        # S_0 + S_1 and S_0 - S_1 as ``_combine`` gives sums, and their real columns
        sums = np.empty((2, len(signs) * rows, *self.P.shape[1:]), self.P.dtype)
        flat = sums.view(float).reshape(2, len(signs), rows, -1)
        for lo in range(0, cols.size, _COLUMNS):
            block = cols[lo:lo + _COLUMNS]
            phase = lattice_correlations(spectra, self._kernels(block), size, p, rows)
            flat[0][..., block] = phase[0] + phase[1]
            flat[1][..., block] = phase[0] - phase[1]
        return sums[0], block_norms(self._values(sums[1])) + roundoff

    def _kernels(self, cols):
        """The kernels fa P and -fb T P at the real columns ``cols`` of P, node
        2 m + q at (q, column, part and ray, m); T P is formed there only, as
        lam P on the eigen path, else as one product T_r P_r per column l met."""
        n, p = self.u_ray.size, self._p_flat[:, cols]
        if self.basis is None:
            km = self._bt.shape[-1]
            r, i, l = np.unravel_index(cols[::2] // 2, self._bt.shape)
            heads, at = np.unique(r * km + l, return_inverse=True)
            # (column l, node, row i) of T_r P_r
            tp = self.P[:, heads // km, :, heads % km] @ np.swapaxes(self._bt[heads // km], -1, -2)
            tp = np.ascontiguousarray(tp[at, :, i].T).view(float)
        else:
            tp = self.basis.lam.ravel()[cols] * p
        kernels = np.zeros((2, 2, n + 1, cols.size))
        np.multiply(p.reshape(2, n, -1), self._fa.reshape(2, n, 1), out=kernels[0, :, :n])
        np.multiply(tp.reshape(2, n, -1), -self._fb.reshape(2, n, 1), out=kernels[1, :, :n])
        # transformed along m, a contiguous axis, which pocketfft takes fastest
        return np.ascontiguousarray(kernels.reshape(4, -1, 2, cols.size).transpose(2, 3, 0, 1))

    def _combine(self, sum_a, sum_b):
        """alpha P - T beta P from the contractions sum_a, sum_b of alpha and
        beta with P, written over sum_a: the blocks, or on the eigen path
        their diagonals d = sum_a - lam sum_b (values, r, km)."""
        if self.basis is None:
            out, b = (s.view(complex).reshape(-1, *self._bt.shape) for s in (sum_a, sum_b))
            for lo in range(0, len(out), _CHUNK):    # one chunk's product at a time
                out[lo:lo + _CHUNK] -= self._bt @ b[lo:lo + _CHUNK]
        else:
            out = sum_a.reshape(-1, *self.basis.lam.shape)
            out -= self.basis.lam * sum_b.reshape(out.shape)
        return out

    def _values(self, sums):
        """The values of sums from ``_combine``: the blocks, or their ``Diagonal``."""
        return sums if self.basis is None else self.basis.values(sums)


def _rule_bound(c, decay):
    """M = c C_alpha / alpha of ``ContourEngine.rule_error``, c the C at phi - a."""
    return c * decay.c_alpha / decay.alpha


def rule_fits(report, theta, cfg, fs, steps):
    """Whether ``ContourEngine.rule_error`` of every function of ``fs`` is
    at most RULE_TARGET at each contour step of the array ``steps``, on the
    contour of ``cfg`` (a step and a bound M that is not finite fit nowhere)."""
    lower, _ = cfg.contour_angles(report.omega, theta)
    m = np.max([_rule_bound(report.c_at(lower), f.decay) for f in fs])
    return trapezoid_error(cfg.strip(report.omega, theta), steps, m) <= RULE_TARGET


def rule_contour(f: IntrinsicFunction, report: BisectorReport,
                 cfg: ContourConfig | None = None) -> ContourConfig:
    """``cfg`` with the fewest odd node count, at most its own, at which the
    rule error of the function the contour integrates fits (``rule_fits``):
    f, or e f for a bounded f without decay (``hinf_operators``)."""
    cfg = cfg or ContourConfig()
    integrand = f if f.decay is not None else _regularized([f])[1][0]
    counts = np.arange(17, (cfg.nodes | 1) + 1, 2)
    fits = rule_fits(report, f.theta, cfg, [integrand], (cfg.u_max - cfg.u_min) / (counts - 1))
    nodes = counts[np.argmax(fits | (counts == counts[-1]))]
    return ContourConfig(phi=cfg.phi, u_max=cfg.u_max, nodes=int(nodes))


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
    """Direct evaluation p(T) q(T)^{-1} for a rational intrinsic function,
    products, scalings and sums of rationals included: they are rationals.

    Serves as the independent oracle for the quadrature path.
    """
    if f.kind != "rational":
        raise ArgumentError(f"rational_calculus needs a rational function, not a {f.kind} one")
    num, den = f.params["num"], f.params["den"]
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


def hinf_operators(fs, T: CliffordOperator, report: BisectorReport,
                   cfg: ContourConfig | None = None,
                   engine: ContourEngine | None = None) -> list[CalculusResult]:
    """Two-step calculus e(T)^{-1} (e f)(T) of each bounded f of ``fs`` for an
    injective certified T, with one regularizer e (McIntosh 1986) at the first
    f's angle: one e(T) and solver, one batch of ``_contract`` of the e f at
    t = 1, one solve of the (e f)(T) side by side, and claims over sigma_min."""
    _check_report(report)
    if any(f.bounded is None for f in fs):
        raise PreconditionError("hinf calculus requires a bounded certificate on f")
    if not report.injective:
        raise PreconditionError("hinf calculus requires an injective operator")
    e, efs = _regularized(fs)
    eng = engine or ContourEngine(T, report, fs[0].theta, cfg)
    one = np.ones(1)
    truncs = [eng.truncation_bound(ef.decay) for ef in efs]
    profiles = [next(eng._windows(ef, one, one, np.zeros(1, int)))[2] for ef in efs]
    sums, discs = eng._contract([np.stack(p, axis=1) for p in zip(*profiles)], [False])
    discs = discs + [eng.rule_error(ef.decay) for ef in efs]
    coeffs = coeffs_from_blocks(eng.dense_blocks(eng._values(sums)), T.n)
    solver = OperatorSolver(rho_matrix(rational_calculus(e, T)), T.n, T.m)
    solver.require_invertible(what="regularizer operator e(T)")
    xs = solver.solve_real(np.hstack([rho_stack(c, T.n) for c in coeffs]))
    scale = 1.0 / solver.sigma_min
    return [CalculusResult(operator_from_real(x, T.n, T.m), trunc * scale, disc * scale)
            for x, trunc, disc in zip(np.split(xs, len(fs), axis=1), truncs, discs)]


def _regularized(fs):
    """(e, the e f of each f of ``fs``), e the regularizer at the first f's angle."""
    e = regularizer(fs[0].theta)
    return e, [product_function(e, f) for f in fs]


def hinf_calculus(f: IntrinsicFunction, T: CliffordOperator,
                  report: BisectorReport, cfg: ContourConfig | None = None,
                  engine: ContourEngine | None = None) -> CalculusResult:
    """``hinf_operators`` for the one function f."""
    return hinf_operators([f], T, report, cfg, engine)[0]


def scaled_calculus(f: IntrinsicFunction, t, T: CliffordOperator,
                    report: BisectorReport, cfg: ContourConfig | None = None,
                    engine: ContourEngine | None = None) -> CalculusResult:
    """f(tT) as the contour calculus of the scaled function; t = 1 is bitwise
    identical to omega_calculus."""
    if t == 0.0:
        raise ArgumentError("scaling parameter t must be nonzero")
    return omega_calculus(scale_function(f, t), T, report, cfg, engine)


def _window_cells(engine, a, b):
    """log a, broadcast with log b, and each end of each window (a, b) as a
    cell index j of the cells [x_j, x_j + h], x_j = u_min + min log a + j h,
    and the part of that cell before it, (2, windows)."""
    log_a, log_b = np.broadcast_arrays(np.log(a), np.log(b))
    cells, rest = np.divmod(np.stack([log_a.ravel(), log_b.ravel()]) - log_a.min(), engine.step)
    return log_a, cells, rest


def f_ab_nodes(engine: ContourEngine, f: IntrinsicFunction, a, b, points=12):
    """The scalar f_ab at the nodes e^{u_k} e^{i phi}, u_k = u_min + k h, of
    the + ray of ``engine``, per window [a, b] of the broadcast arrays a, b:
    (*their shape, nodes).  There f_ab(e^u e^{i phi}) = Phi(u + log b) -
    Phi(u + log a), Phi a primitive of G(x) = F(e^x e^{i phi}) -
    F(-e^x e^{i phi}), and f_ab(-z) = -f_ab(z).  G is sampled once, at
    ``points`` Gauss-Legendre points in each cell [x_j, x_j + h] of
    ``_window_cells``, h the step of the contour; Phi at x_j + c h,
    0 <= c < 1, is a prefix sum of cell integrals plus the integral of the
    interpolant through cell j's samples over [0, c]."""
    log_a, cells, rest = _window_cells(engine, a, b)
    n, h = engine.u_ray.size, engine.step
    s, w, w_part = gl_cell_rule(points, rest / h)
    x = engine.cfg.u_min + log_a.min() + h * (np.arange(n + cells.max())[:, None] + s)
    vals = engine._sample(f, np.exp(x), lambda j, q: {"u": float(x[j, q])})
    samples = h * (vals[0] - vals[1])
    prefix = np.concatenate([[0.0], np.cumsum((samples * w).sum(axis=1))])
    primitive = prefix[:-1] + np.einsum("jp,erp->erj", samples, w_part)
    ends = np.take_along_axis(primitive, cells.astype(int)[..., None] + np.arange(n), axis=-1)
    return (ends[1] - ends[0]).reshape(*log_a.shape, n)


def f_ab_node_error(engine: ContourEngine, f: IntrinsicFunction, a, b, points=12):
    """A bound on the error of each node value of ``f_ab_nodes``, per window
    of the broadcast arrays a, b, a priori, from f's decay certificate.

    G is analytic for |Im x| < theta - phi, where e^x e^{i phi} stays in f's
    sector, and there |G| <= B(x) = 2 C_alpha e^(alpha x) / (1 + e^(2 alpha x))
    <= M = C_alpha.  Around each cell the Bernstein ellipse of semi-minor axis
    (theta - phi) / 2 has rho - 1/rho = 2 (theta - phi) / h, and G's
    Chebyshev coefficients there are at most 2 M rho^-k (Trefethen,
    Approximation Theory and Approximation Practice, 2013, Theorem 8.1).  So
    the rule, exact to degree 2 points - 1, errs on a cell by at most
    (h / 2) (64/15) M rho^(2 - 2 points) / (rho^2 - 1) (ibid., Theorem 19.3),
    and the interpolant's integral over the part c h of a cell, exact to
    degree points - 1, by at most (c h + h sum|w_part|) 2 M rho^(1 - points) /
    (rho - 1) (the tail of Theorem 8.2), at each end of a window.  The sums
    round by at most gamma_K, K = cells + points + 3, times the sum of their
    terms' moduli, at most S = M (pi / alpha + h) (the integral of B plus one
    cell) for the cell and prefix sums, since the terms before a window's
    first cell are common to both its ends (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 4.2), and h M sum|w_part| for
    the part cells.  Where rho rounds to 1 the bound is inf, a claim that
    ``_ErrorBudget`` refuses."""
    log_a, cells, rest = _window_cells(engine, a, b)
    h, m = engine.step, f.decay.c_alpha
    part = np.abs(gl_cell_rule(points, rest / h)[2]).sum(axis=-1)
    y = (f.theta - engine.phi) / h
    rho = np.float64(y + math.sqrt(1.0 + y * y))
    with np.errstate(divide="ignore"):
        per_cell = h / 2.0 * 64.0 / 15.0 * m * rho ** (2 - 2 * points) / (rho * rho - 1.0)
        per_end = 2.0 * m * rho ** (1 - points) / (rho - 1.0)
    k = (engine.u_ray.size + cells.max() + points + 3) * np.finfo(float).eps
    errors = ((cells[1] - cells[0]) * per_cell + (rest + h * part).sum(axis=0) * per_end
              + k / (1.0 - k) * m * (math.pi / f.decay.alpha + h + h * part.sum(axis=0)))
    return errors.reshape(log_a.shape)


def f_ab_operators(f: IntrinsicFunction, windows, T: CliffordOperator,
                   report: BisectorReport, cfg: ContourConfig | None = None,
                   engine: ContourEngine | None = None) -> list[CalculusResult]:
    """Truncated parameter integrals of f(tT) dt/t over a <= |t| <= b, one
    per window (a, b) in ``windows``: by Fubini each is the contour calculus
    of the scalar f_ab, the contraction of its node values (``f_ab_nodes``),
    all windows in one contraction.  The discretization estimate is the
    contour's plus the bound on the node values (``f_ab_node_error``) times
    sum_k ||fa_k P_k||_F + ||T|| ||fb_k P_k||_F over the nodes, plus the
    rule error of f_ab: |f_ab| <= the integral over log t in (log a, log b)
    of |f(t z)| + |f(-t z)|, so by Fubini its M is 2 log(b / a) times f's
    (``ContourEngine.rule_error``).  The
    truncation estimate integrates that of f(tT) over a <= |t| <= b, on
    ``gl_panel_grid``."""
    a, b = np.array(windows, dtype=float).T
    if not np.all((0.0 < a) & (a <= b) & (b < math.inf)):
        raise ArgumentError(f"need 0 < a <= b < inf for each window (a, b), got {windows}")
    _check_report(report)
    if f.decay is None:
        raise PreconditionError("contour calculus requires a decay certificate")
    eng = engine or ContourEngine(T, report, f.theta, cfg)
    with np.errstate(over="ignore"):    # an overflow is refused as a claim
        grids = [gl_panel_grid(lo, hi, points=12) for lo, hi in zip(np.log(a), np.log(b))]
        truncs = [float(np.dot(w, 2.0 * eng.truncation_bound(f.decay, np.exp(u))))
                  for u, w in grids]
    # the values at t = 1 on the + and the - ray (f_ab is odd)
    rays = f_ab_nodes(eng, f, a, b)
    sums, discs = eng._contract(eng._parts(np.stack([rays, -rays])), [False])
    discs += f_ab_node_error(eng, f, a, b) * eng._k_fro.sum()
    discs += eng.rule_error(f.decay, 2.0 * (np.log(b) - np.log(a)))
    coeffs = coeffs_from_blocks(eng.dense_blocks(eng._values(sums)), T.n)
    return [CalculusResult(CliffordOperator(T.n, T.m, c), trunc, float(disc))
            for c, trunc, disc in zip(coeffs, truncs, discs)]


def f_ab_operator(f: IntrinsicFunction, a, b, T: CliffordOperator,
                  report: BisectorReport, cfg: ContourConfig | None = None,
                  engine: ContourEngine | None = None) -> CalculusResult:
    """``f_ab_operators`` for the one window (a, b)."""
    return f_ab_operators(f, [(a, b)], T, report, cfg, engine)[0]


def adjoint_calculus_check(f: IntrinsicFunction, T: CliffordOperator,
                           report: BisectorReport,
                           cfg: ContourConfig | None = None) -> float:
    """Norm gap between f(T*) and f(T)*, both computed independently."""
    res_t = hinf_calculus(f, T, report, cfg)
    t_star = T.adjoint()
    # T*'s certificate at the contour's angles alone: rho(Q_s(T*)) = rho(Q_s(T))^T
    # stands or falls with T's
    phis = (cfg or ContourConfig()).contour_angles(report.omega, f.theta)
    report_star = check_bisectorial(t_star, report.omega, RaySampling(phis=phis))
    res_star = hinf_calculus(f, t_star, report_star, cfg)
    return float(spectral_norm(rho_matrix(res_star.op) - rho_matrix(res_t.op).T))
