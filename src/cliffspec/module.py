"""Clifford-module vectors, right-linear operators and the real representation.

Vectors in V = R^m (x) R_n carry one CliffordNum per module slot; operators
are m x m Clifford matrices whose entries multiply from the left, which is
the general form of a bounded right-linear map on V.  Flattening a vector
lists the module index first and the basis mask second, and the faithful
real representation rho acts on that flattening.  rho is the numerical
workhorse for inversion, singular values and symmetric eigenproblems;
batched work uses its spinor blocks (``block_form``), which carry the same
norms, singular values and eigenvalues at a fraction of the size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from functools import lru_cache

from .clifford import (
    MAX_DIMENSION,
    CliffordNum,
    Paravector,
    basis_left_matrices,
    blade_contract,
    conjugation_signs,
    spinor_blades,
)
from .errors import DimensionMismatchError, NotInvertibleError, NumericalFailureError

INVERTIBILITY_RTOL = 1e-10


class _ModuleArray:
    """Real coefficient array over R_n with the linear arithmetic that module
    vectors and operators share; a subclass gives ``_shape(n, m)`` and the
    words ``_array`` and ``_plural`` of its shape errors."""

    __slots__ = ("n", "m", "coeffs")

    def __init__(self, n, m, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        shape = self._shape(n, m)
        if coeffs.shape != shape:
            raise DimensionMismatchError(
                f"expected {self._array} of shape {shape}, got {coeffs.shape}")
        self.n = n
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, np.zeros(cls._shape(n, m)))

    def __add__(self, other):
        self._check(other)
        return type(self)(self.n, self.m, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.n, self.m, self.coeffs - other.coeffs)

    def __neg__(self):
        return type(self)(self.n, self.m, -self.coeffs)

    def __mul__(self, scalar):
        return type(self)(self.n, self.m, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatchError(f"{self._plural} of different shape")

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class ModuleVector(_ModuleArray):
    """Vector in V: coeffs[i, A] is the coefficient of e_A in module slot i."""

    __slots__ = ()
    _array, _plural = "coefficient array", "module vectors"

    @staticmethod
    def _shape(n, m):
        return (m, 1 << n)

    @classmethod
    def from_flat(cls, n, m, flat):
        return cls(n, m, np.asarray(flat, dtype=float).reshape(m, 1 << n))

    def flatten(self):
        return self.coeffs.ravel()

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


class CliffordOperator(_ModuleArray):
    """Right-linear operator as an m x m Clifford matrix acting by (Tv)_i = sum_j t_ij v_j."""

    __slots__ = ()
    _array, _plural = "entry array", "operators"

    @staticmethod
    def _shape(n, m):
        return (m, m, 1 << n)

    @classmethod
    def identity(cls, n, m):
        c = np.zeros((m, m, 1 << n))
        for i in range(m):
            c[i, i, 0] = 1.0
        return cls(n, m, c)

    @classmethod
    def from_real_matrix(cls, matrix, n):
        """Operator with real scalar entries (ordinary real matrix tensor identity)."""
        matrix = np.asarray(matrix, dtype=float)
        m = matrix.shape[0]
        if matrix.shape != (m, m):
            raise DimensionMismatchError("from_real_matrix expects a square matrix")
        c = np.zeros((m, m, 1 << n))
        c[:, :, 0] = matrix
        return cls(n, m, c)

    @classmethod
    def scalar_mul(cls, s, m):
        """Left multiplication by the Clifford number s as an operator (diag(s))."""
        s = s.to_clifford() if isinstance(s, Paravector) else s
        c = np.zeros((m, m, 1 << s.n))
        for i in range(m):
            c[i, i] = s.coeffs
        return cls(s.n, m, c)

    def apply(self, v: ModuleVector) -> ModuleVector:
        """Direct entrywise application, independent of the real representation."""
        if v.n != self.n or v.m != self.m:
            raise DimensionMismatchError("operator and vector of different shape")
        return ModuleVector(self.n, self.m,
                            blade_contract("ij,j->i", self.coeffs, v.coeffs, self.n))

    def __matmul__(self, other):
        if isinstance(other, ModuleVector):
            return self.apply(other)
        if not isinstance(other, CliffordOperator):
            return NotImplemented
        if other.n != self.n or other.m != self.m:
            raise DimensionMismatchError("operators of different shape")
        return CliffordOperator(self.n, self.m,
                                blade_contract("ij,jk->ik", self.coeffs, other.coeffs, self.n))

    def adjoint(self):
        """Bar-transpose: entry (i, j) becomes the conjugate of entry (j, i)."""
        c = self.coeffs.transpose(1, 0, 2) * conjugation_signs(self.n)
        return CliffordOperator(self.n, self.m, c)


@dataclass(frozen=True)
class AdjointPair:
    """An operator together with its adjoint (pairing <T* w, v> = <w, T v>)."""

    T: CliffordOperator
    Tstar: CliffordOperator


def rho_stack(coeffs, n):
    """rho of each Clifford matrix in a stack of coefficient arrays (..., m, m, 2^n)."""
    dim2 = 1 << n
    *lead, m, _, _ = coeffs.shape
    out = (coeffs @ basis_left_matrices(n).reshape(dim2, dim2 * dim2)).reshape(
        *lead, m, m, dim2, dim2)
    return np.swapaxes(out, -3, -2).reshape(*lead, m * dim2, m * dim2)


@lru_cache(maxsize=MAX_DIMENSION + 1)
def _blade_matrix(n):
    # gamma_j(e_A) as one real matrix from the coefficient index A to the
    # real view (re, im) of the spinor indices (j, k, l)
    gam = spinor_blades(n)
    w = np.stack([gam.real, gam.imag], axis=-1).transpose(1, 0, 2, 3, 4)
    out = w.reshape(gam.shape[1], -1)
    out.setflags(write=False)
    return out


def block_form(coeffs, n):
    """The kept blocks sum_A X_A (x) gamma_j(e_A) of rho(X), shape (..., r, km, km),
    for a coefficient array or a stack of them (..., m, m, 2^n).

    rho(X) is unitarily similar to copies of these blocks and of their
    complex conjugates (see ``spinor_blades``), so its norm, sigma_min and
    eigenvalues are those of the blocks.
    """
    r, _, k, _ = spinor_blades(n).shape
    *lead, m, _, _ = coeffs.shape
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        out = np.ascontiguousarray(coeffs @ _blade_matrix(n)).view(complex)
    out = np.moveaxis(out.reshape(*lead, m, m, r, k, k), (-3, -2), (-5, -3))
    out = out.reshape(*lead, r, m * k, m * k)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("the spinor blocks of rho are not finite: "
                                    "the sums of the coefficients overflow")
    return out


class Diagonal:
    """A stack of block forms B = U diag(d) U^H in the ``EigenBasis`` U of a
    self-adjoint T: real diagonals ``d`` (..., r, km) and a bound ``e`` (..., r)
    on the norm of the rest of W^H B W beyond diag(d), W the unitary polar
    factor of U.  Norms of B and of products are bounds from |d| and e."""

    __slots__ = ("d", "e")

    def __init__(self, d, e):
        self.d = d
        self.e = e


class EigenBasis:
    """bt = U diag(lam) U^H for the exactly Hermitian spinor blocks bt of a
    self-adjoint T (``self_adjoint_basis``): ``u`` (r, km, km), real ``lam``
    (r, km) and per block the ``departure`` delta >= ||U^H U - I||.

    Every g(tT) is a function of T, so the contour engine keeps its values
    as diagonals in U (``values``) and assembles blocks on request (``blocks``).
    """

    __slots__ = ("u", "lam", "departure")

    def __init__(self, u, lam, departure):
        self.u = u
        self.lam = lam
        self.departure = departure

    def values(self, d) -> Diagonal:
        """The ``Diagonal`` of diagonals d (..., r, km), with
        e = delta (2 + delta) max|d|: with U = W S, ||S - I|| <= delta,
        W^H U diag(d) U^H W = S diag(d) S is diag(d) plus at most
        delta (2 + delta) max|d|.  No product is formed."""
        delta = self.departure
        return Diagonal(d, delta * (2.0 + delta) * np.abs(d).max(axis=-1))

    def blocks(self, d):
        """The blocks U diag(d) U^H of a stack of diagonals (..., r, km)."""
        return (self.u * d[..., None, :]) @ np.swapaxes(self.u, -1, -2).conj()


def self_adjoint_basis(bt):
    """The ``EigenBasis`` of the spinor blocks ``bt`` of T when they are
    exactly Hermitian, else None.  The map to blocks takes T* to bt^H, so a
    T equal to T* coefficient for coefficient has one, and a T self-adjoint
    only to rounding takes the dense path.
    """
    if not np.array_equal(bt, np.swapaxes(bt, -1, -2).conj()):
        return None
    lam, u = np.linalg.eigh(bt)
    km = bt.shape[-1]
    # ||U^H U - I|| and its own rounding
    gram = np.swapaxes(u, -1, -2).conj() @ u - np.eye(km)
    departure = np.linalg.norm(gram, axis=(-2, -1)) + 2.0 * km * np.finfo(float).eps
    return EigenBasis(u, lam, departure)


def block_norms(blocks):
    """The norm of each matrix in a stack of block forms (..., r, km, km),
    the largest over its blocks: by ``spectral_norm``, or for a ``Diagonal``
    the bound max|d| + e, with no eigensolve."""
    if isinstance(blocks, Diagonal):
        return (np.abs(blocks.d).max(axis=-1) + blocks.e).max(axis=-1)
    return spectral_norm(blocks).max(axis=-1)


def coeffs_from_blocks(blocks, n):
    """Inverse of ``block_form`` on a stack (..., r, km, km) of blocks:
    X_A = (1 / (r k)) sum_j Re tr(gamma_j(e_A)^H B_j), one real GEMM on the
    real view of the spinor indices."""
    *lead, r, d, _ = blocks.shape
    k = 1 << (n // 2)
    m = d // k
    b = blocks.reshape(*lead, r, m, k, m, k)
    b = np.ascontiguousarray(np.moveaxis(b, (-4, -2), (-5, -4)))   # (..., i, j, r, k, l)
    return (b.view(np.float64).reshape(*lead, m, m, 2 * r * k * k)
            @ _blade_matrix(n).T) / (r * k)


def _rho_coeffs(stack, n):
    # entry (i, j) of each Clifford matrix, read off the mask-0 column of
    # block (i, j) of its rho
    dim2 = 1 << n
    *lead, d, _ = stack.shape
    m = d // dim2
    return np.swapaxes(stack.reshape(*lead, m, dim2, m, dim2)[..., 0], -1, -2)


def blocks_from_rho(stack, n):
    """The spinor blocks (``block_form``) of each matrix in a stack of rho
    matrices (..., D, D); each must lie in the image of rho."""
    return block_form(_rho_coeffs(np.asarray(stack, dtype=float), n), n)


# a Gram whose lambda_max lies below this has lost bits to underflow, or
# is about to: the norm is taken of 2^-e A instead
_GRAM_TINY = 2.0 ** -1000


def spectral_norm(stack):
    """Largest singular value of each matrix in a stack, sqrt(lambda_max(A^H A)).

    A 1 x 1 matrix gives |a|.  A 2 x 2 one gives it in closed form from the
    entries p, q and m12 of A^H A (``entry_norms``), a larger one by
    ``eigvalsh`` of A^H A.  Where lambda_max overflows or falls below
    2^-1000, the norm is 2^e ||2^-e A|| with 2^e > max |a_ij|, scaled exactly.
    """
    a = np.asarray(stack)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    lead = a.shape[:-2]
    a = a.reshape(-1, *a.shape[-2:])
    if a.shape[-2:] == (2, 2):
        return entry_norms(a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]).reshape(lead)
    lam = _gram_lambda_max(a)
    e = np.zeros(lam.shape, dtype=int)
    # a zero matrix has lambda_max 0 and no scale
    scale = ~((lam >= _GRAM_TINY) & (lam < np.inf)) & a.any(axis=(-1, -2))
    if scale.any():
        e[scale] = np.frexp(np.abs(a[scale]).max(axis=(-1, -2)))[1]
        lam[scale] = _gram_lambda_max(_ldexp(a[scale], -e[scale]))
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e).reshape(lead)


def entry_norms(a00, a01, a10, a11):
    """``spectral_norm`` of the 2 x 2 matrices given by four arrays of their
    entries (arrays of one shape, with at least one axis), in the closed form
    of ``_entry_lambda_max``, with the same exact 2^-e scaling where
    lambda_max overflows or falls below 2^-1000."""
    entries = (a00, a01, a10, a11)
    lam = _entry_lambda_max(*entries)
    e = np.zeros(lam.shape, dtype=int)
    scale = ~((lam >= _GRAM_TINY) & (lam < np.inf))
    if scale.any():
        # a zero matrix has lambda_max 0 and no scale
        scale &= np.logical_or.reduce([x != 0 for x in entries])
        e[scale] = np.frexp(np.maximum.reduce([np.abs(x[scale]) for x in entries]))[1]
        lam[scale] = _entry_lambda_max(*(_ldexp(x[scale], -e[scale]) for x in entries))
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e)


def _entry_lambda_max(a00, a01, a10, a11):
    """lambda_max of A^H A from the entries of 2 x 2 matrices A: max(p, q) +
    ``_split`` of the entries p, q and m12 of A^H A, inf where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = _abs2(a00) + _abs2(a10)
        q = _abs2(a01) + _abs2(a11)
        return np.maximum(p, q) + _split(p, q, np.abs(a00.conj() * a01 + a10.conj() * a11))


def _ldexp(a, e):
    """a 2^e, exactly, for a real or complex array a and one e per index of
    its leading axes, those of e."""
    a = np.ascontiguousarray(a)
    parts = a[..., None].view(np.float64) if np.iscomplexobj(a) else a
    out = np.ldexp(parts, e.reshape(e.shape + (1,) * (parts.ndim - e.ndim)))
    return out.view(a.dtype)[..., 0] if np.iscomplexobj(a) else out


def _gram_lambda_max(a):
    """lambda_max of each A^H A in a stack, inf where A^H A overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(a, -1, -2).conj() @ a
    big = ~np.isfinite(gram).all(axis=(-1, -2))
    gram[big] = 0.0
    lam = np.linalg.eigvalsh(gram)[..., -1]
    lam[big] = np.inf
    return lam


def _abs2(x):
    return x.real * x.real + x.imag * x.imag if np.iscomplexobj(x) else x * x


def _split(p, q, m12):
    """lambda_max - max(p, q) = max(p, q) - lambda_min >= 0 of the Hermitian
    [[p, m12], [conj m12, q]], as |m12|^2 / (r + |p - q| / 2) with
    r = hypot((p - q) / 2, |m12|): no cancellation, and 0 where m12 = 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half = 0.5 * np.abs(p - q)
        den = np.hypot(half, m12) + half
        return np.where(m12 > 0.0, m12 * (m12 / den), 0.0)


def hermitian_eigenvalues(h):
    """Eigenvalues, ascending, of each matrix in a stack of Hermitian h
    (..., k, k): in closed form for k <= 2, max(p, q) + s and
    min(p, q) - s with s from ``_split``, exact on diagonal h; else by
    ``eigvalsh``."""
    h = np.asarray(h)
    if h.shape[-1] == 1:
        return h[..., 0].real
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    p, q = h[..., 0, 0].real, h[..., 1, 1].real
    s = _split(p, q, np.abs(h[..., 0, 1]))
    return np.stack([np.minimum(p, q) - s, np.maximum(p, q) + s], axis=-1)


def block_products(a, b):
    """A B for each pair of two stacks of blocks (broadcast): entry by entry
    for 1 x 1 and 2 x 2 blocks, with no matmul loop, else ``a @ b``."""
    if a.shape[-2:] == b.shape[-2:] == (1, 1):
        return a * b
    if not a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in (0, 1):
        for j in (0, 1):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def rho_matrix(T: CliffordOperator) -> np.ndarray:
    """Faithful real matrix rho(T) acting on flattened module vectors."""
    return rho_stack(T.coeffs, T.n)


def operator_from_real(matrix, n, m) -> CliffordOperator:
    """Recover the Clifford matrix whose rho equals ``matrix``.

    Entry (i, j) is read off the mask-0 column of block (i, j); the input
    must lie in the image of rho for the result to be faithful.
    """
    matrix = np.asarray(matrix, dtype=float)
    dim2 = 1 << n
    if matrix.shape != (m * dim2, m * dim2):
        raise DimensionMismatchError(
            f"expected ({m * dim2}, {m * dim2}) real matrix, got {matrix.shape}"
        )
    return CliffordOperator(n, m, _rho_coeffs(matrix, n).copy())


def inner_product(v: ModuleVector, w: ModuleVector) -> CliffordNum:
    """Module inner product, right-linear in w and right-antilinear in v."""
    if v.n != w.n or v.m != w.m:
        raise DimensionMismatchError("vectors of different shape")
    conj_v = v.coeffs * conjugation_signs(v.n)
    return CliffordNum(v.n, blade_contract("i,i->", conj_v, w.coeffs, v.n))


def scalar_part(v: ModuleVector, w: ModuleVector) -> float:
    """Sc<v, w>, equal to the Euclidean inner product of the flattenings."""
    return float(np.dot(v.flatten(), w.flatten()))


def scalar_mul_left(s, v: ModuleVector) -> ModuleVector:
    s = s.to_clifford() if isinstance(s, Paravector) else s
    if s.n != v.n:
        raise DimensionMismatchError("scalar and vector in different algebras")
    return ModuleVector(v.n, v.m, v.coeffs @ s.left_matrix().T)


def scalar_mul_right(v: ModuleVector, s) -> ModuleVector:
    s = s.to_clifford() if isinstance(s, Paravector) else s
    if s.n != v.n:
        raise DimensionMismatchError("scalar and vector in different algebras")
    return ModuleVector(v.n, v.m, v.coeffs @ s.right_matrix().T)


def adjoint_operator(T: CliffordOperator) -> CliffordOperator:
    return T.adjoint()


def adjoint_pair(T: CliffordOperator) -> AdjointPair:
    return AdjointPair(T, T.adjoint())


def operator_norm(T: CliffordOperator) -> float:
    """Largest singular value of rho(T)."""
    return float(np.linalg.svd(rho_matrix(T), compute_uv=False)[0])


class OperatorSolver:
    """Invertibility-checked solves with a real (m 2^n)-square matrix, such as
    rho(T), used exactly as given; shareable for reads after construction."""

    def __init__(self, rho, n, m):
        self.n = n
        self.m = m
        self.rho = np.asarray(rho, dtype=float)
        svals = np.linalg.svd(self.rho, compute_uv=False)
        self.sigma_max = float(svals[0])
        self.sigma_min = float(svals[-1])

    def require_invertible(self, what="operator"):
        if not self.sigma_min > INVERTIBILITY_RTOL * self.sigma_max:
            raise NotInvertibleError(
                f"{what} singular to tolerance: sigma_min={self.sigma_min:.3e}, "
                f"sigma_max={self.sigma_max:.3e}",
                sigma_min=self.sigma_min,
            )

    def solve_real(self, rhs):
        """Solve rho(T) x = rhs with one step of iterative refinement."""
        self.require_invertible()
        x = np.linalg.solve(self.rho, rhs)
        return x + np.linalg.solve(self.rho, rhs - self.rho @ x)

    def solve(self, w: ModuleVector) -> ModuleVector:
        if w.n != self.n or w.m != self.m:
            raise DimensionMismatchError("right-hand side of different shape")
        x = self.solve_real(w.flatten())
        return ModuleVector.from_flat(self.n, self.m, x)


def solve_operator(T: CliffordOperator, w: ModuleVector) -> ModuleVector:
    """Solve T v = w; raises NotInvertibleError when sigma_min is below tolerance."""
    return OperatorSolver(rho_matrix(T), T.n, T.m).solve(w)
