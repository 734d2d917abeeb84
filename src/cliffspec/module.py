"""Clifford-module vectors, right-linear operators and the real representation.

Vectors in V = R^m (x) R_n carry one CliffordNum per module slot; operators
are m x m Clifford matrices whose entries multiply from the left, which is
the general form of a bounded right-linear map on V.  Flattening a vector
lists the module index first and the basis mask second, and the faithful
real representation rho acts on that flattening.  rho is the numerical
workhorse for inversion, singular values and symmetric eigenproblems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    CliffordNum,
    Paravector,
    basis_left_matrices,
    blade_contract,
    conjugation_signs,
)
from .errors import DimensionMismatchError, NotInvertibleError

INVERTIBILITY_RTOL = 1e-10


class ModuleVector:
    """Vector in V: coeffs[i, A] is the coefficient of e_A in module slot i."""

    __slots__ = ("n", "m", "coeffs")

    def __init__(self, n, m, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (m, 1 << n):
            raise DimensionMismatchError(
                f"expected coefficient array of shape ({m}, {1 << n}), got {coeffs.shape}"
            )
        self.n = n
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, np.zeros((m, 1 << n)))

    @classmethod
    def from_flat(cls, n, m, flat):
        return cls(n, m, np.asarray(flat, dtype=float).reshape(m, 1 << n))

    def flatten(self):
        return self.coeffs.ravel()

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        self._check(other)
        return ModuleVector(self.n, self.m, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return ModuleVector(self.n, self.m, self.coeffs - other.coeffs)

    def __neg__(self):
        return ModuleVector(self.n, self.m, -self.coeffs)

    def __mul__(self, scalar):
        return ModuleVector(self.n, self.m, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatchError("module vectors of different shape")

    def __repr__(self):
        return f"ModuleVector(n={self.n}, m={self.m})"


class CliffordOperator:
    """Right-linear operator as an m x m Clifford matrix acting by (Tv)_i = sum_j t_ij v_j."""

    __slots__ = ("n", "m", "coeffs")

    def __init__(self, n, m, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (m, m, 1 << n):
            raise DimensionMismatchError(
                f"expected entry array of shape ({m}, {m}, {1 << n}), got {coeffs.shape}"
            )
        self.n = n
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def identity(cls, n, m):
        c = np.zeros((m, m, 1 << n))
        for i in range(m):
            c[i, i, 0] = 1.0
        return cls(n, m, c)

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, np.zeros((m, m, 1 << n)))

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

    def __add__(self, other):
        self._check(other)
        return CliffordOperator(self.n, self.m, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return CliffordOperator(self.n, self.m, self.coeffs - other.coeffs)

    def __neg__(self):
        return CliffordOperator(self.n, self.m, -self.coeffs)

    def __mul__(self, scalar):
        return CliffordOperator(self.n, self.m, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def adjoint(self):
        """Bar-transpose: entry (i, j) becomes the conjugate of entry (j, i)."""
        c = self.coeffs.transpose(1, 0, 2) * conjugation_signs(self.n)
        return CliffordOperator(self.n, self.m, c)

    def _check(self, other):
        if self.n != other.n or self.m != other.m:
            raise DimensionMismatchError("operators of different shape")

    def __repr__(self):
        return f"CliffordOperator(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class RealRepresentation:
    """Faithful real matrix rho(T) acting on flattened module vectors."""

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class AdjointPair:
    """An operator together with its adjoint (pairing <T* w, v> = <w, T v>)."""

    T: CliffordOperator
    Tstar: CliffordOperator


def real_representation(T: CliffordOperator) -> RealRepresentation:
    basis = basis_left_matrices(T.n)
    dim2 = 1 << T.n
    rho = np.einsum("ija,acb->icjb", T.coeffs, basis).reshape(T.m * dim2, T.m * dim2)
    return RealRepresentation(T.m * dim2, rho)


def rho_matrix(T: CliffordOperator) -> np.ndarray:
    return real_representation(T).matrix


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
    blocks = matrix.reshape(m, dim2, m, dim2)
    return CliffordOperator(n, m, blocks[:, :, :, 0].transpose(0, 2, 1).copy())


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
