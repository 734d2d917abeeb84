"""Arithmetic in the real Clifford algebra R_n and paravector geometry.

The algebra R_n is generated by n anticommuting imaginary units
(e_i^2 = -1, e_i e_j = -e_j e_i).  A basis blade e_A is encoded as an
n-bit mask whose set bits are the generators of A, and an element is
stored as 2**n real coefficients in ascending mask order:

    n = 2:   index 0 -> 1,  1 -> e1,  2 -> e2,  3 -> e12

The product of two blades is computed by counting the transpositions
needed to merge the two sorted generator lists (one -1 per swap) plus
one -1 per repeated generator.  Both tables are precomputed per n, and
every product of coefficient arrays is one contraction with the stack of
left-multiplication matrices (``blade_contract``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ArgumentError, DegenerateInputError, DimensionMismatchError

MAX_DIMENSION = 6


def _blade_sign(a: int, b: int) -> int:
    # transpositions: bits of a strictly above each bit of b
    swaps = 0
    j = b
    while j:
        low = j & -j
        swaps += bin(a >> (low.bit_length())).count("1")
        j ^= low
    repeats = bin(a & b).count("1")
    return -1 if (swaps + repeats) % 2 else 1


@lru_cache(maxsize=MAX_DIMENSION + 1)
def multiplication_table(n):
    """Tables (signs, masks) with e_A e_B = signs[A, B] * e_(masks[A, B])."""
    dim = 1 << n
    signs = np.empty((dim, dim), dtype=np.int8)
    masks = np.empty((dim, dim), dtype=np.intp)
    for a in range(dim):
        for b in range(dim):
            signs[a, b] = _blade_sign(a, b)
            masks[a, b] = a ^ b
    signs.setflags(write=False)
    masks.setflags(write=False)
    return signs, masks


@lru_cache(maxsize=MAX_DIMENSION + 1)
def conjugation_signs(n):
    """Per-blade signs (-1)**(|A|(|A|+1)/2) of the Clifford conjugate."""
    dim = 1 << n
    out = np.empty(dim)
    for a in range(dim):
        k = bin(a).count("1")
        out[a] = -1.0 if (k * (k + 1) // 2) % 2 else 1.0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=MAX_DIMENSION + 1)
def basis_left_matrices(n):
    """Stack B with B[A] the matrix of left multiplication by e_A."""
    dim = 1 << n
    signs, masks = multiplication_table(n)
    stack = np.zeros((dim, dim, dim))
    cols = np.arange(dim)
    for a in range(dim):
        stack[a, masks[a, :], cols] = signs[a, :]
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=MAX_DIMENSION + 1)
def spinor_blades(n):
    """Stack G with G[j, A] = gamma_j(e_A), the kept irreducible complex
    representations of R_n, each k x k with k = 2^(n // 2).

    gamma(e_i) = i Gamma_i, where Gamma_1..Gamma_n are the Jordan-Wigner
    generators on n // 2 qubits, and for odd n the last is the chirality
    Z (x) ... (x) Z.  Every entry is 0, +-1 or +-i.  Complex conjugation
    maps the pseudoscalar's value i to -i when n = 1 (mod 4), so one
    representation stands for its conjugate class; when n = 3 (mod 4) the
    two classes are both real and the second flips the chirality.
    """
    q = n // 2
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    gens = [reduce(np.kron, [z] * a + [p] + [np.eye(2)] * (q - a - 1), np.eye(1))
            for a in range(q) for p in (x, y)]
    if n % 2:
        gens.append(reduce(np.kron, [z] * q, np.eye(1)))
    reps = [gens] if n % 4 != 3 else [gens, gens[:-1] + [-gens[-1]]]
    k = 1 << q
    out = np.empty((len(reps), 1 << n, k, k), dtype=complex)
    for j, rep in enumerate(reps):
        for mask in range(1 << n):
            mat = np.eye(k, dtype=complex)
            for i in range(n):
                if mask >> i & 1:
                    mat = mat @ (1j * rep[i])
            out[j, mask] = mat
    out.setflags(write=False)
    return out


def blade_contract(spec, a, b, n):
    """Contract two coefficient arrays whose last axis is the blade axis of R_n.

    ``spec`` is the einsum of the other axes; blades multiply in order, a
    on the left.  "ij,jk->ik" is the product of two Clifford matrices and
    ",->" the product of two numbers.
    """
    inputs, out = spec.split("->")
    left, right = inputs.split(",")
    # left-multiplication matrices of a's entries first: a three-operand
    # einsum would loop over all (2^n)^3 blade triples
    left_mats = np.einsum(f"{left}X,XZY->{left}ZY", a, basis_left_matrices(n))
    return np.einsum(f"{left}ZY,{right}Y->{out}Z", left_mats, b)


def _check_n(n):
    if not 1 <= n <= MAX_DIMENSION:
        raise ArgumentError(f"algebra dimension n={n} outside 1..{MAX_DIMENSION}")


class CliffordNum:
    """Element of R_n as 2**n coefficients in ascending mask order."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        _check_n(n)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (1 << n,):
            raise DimensionMismatchError(
                f"expected {1 << n} coefficients for n={n}, got shape {coeffs.shape}"
            )
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def scalar(cls, n, value):
        c = np.zeros(1 << n)
        c[0] = value
        return cls(n, c)

    @classmethod
    def basis(cls, n, mask):
        if not 0 <= mask < (1 << n):
            raise ArgumentError(f"mask {mask} outside algebra R_{n}")
        c = np.zeros(1 << n)
        c[mask] = 1.0
        return cls(n, c)

    def copy(self):
        return CliffordNum(self.n, self.coeffs.copy())

    @property
    def scalar_part(self):
        return float(self.coeffs[0])

    def conjugate(self):
        return CliffordNum(self.n, self.coeffs * conjugation_signs(self.n))

    def abs(self):
        return float(np.linalg.norm(self.coeffs))

    def left_matrix(self):
        """Matrix L with (self * x).coeffs == L @ x.coeffs."""
        return np.tensordot(self.coeffs, basis_left_matrices(self.n), axes=(0, 0))

    def right_matrix(self):
        """Matrix R with (x * self).coeffs == R @ x.coeffs."""
        return blade_contract("i,->i", np.eye(1 << self.n), self.coeffs, self.n).T

    def __add__(self, other):
        other = _coerce(other, self.n)
        return CliffordNum(self.n, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.n)
        return CliffordNum(self.n, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = _coerce(other, self.n)
        return CliffordNum(self.n, other.coeffs - self.coeffs)

    def __neg__(self):
        return CliffordNum(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return CliffordNum(self.n, self.coeffs * float(other))
        return clifford_product(self, _coerce(other, self.n))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return CliffordNum(self.n, self.coeffs * float(other))
        return clifford_product(_coerce(other, self.n), self)

    def __eq__(self, other):
        if not isinstance(other, CliffordNum):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs.tobytes()))

    def __repr__(self):
        terms = []
        for mask in range(1 << self.n):
            c = self.coeffs[mask]
            if c == 0.0:
                continue
            blade = "".join(str(i + 1) for i in range(self.n) if mask >> i & 1)
            terms.append(f"{c:g}" if not blade else f"{c:g}*e{blade}")
        return "CliffordNum(" + (" + ".join(terms) if terms else "0") + ")"


def _coerce(x, n):
    if isinstance(x, CliffordNum):
        return x
    if isinstance(x, Paravector):
        return x.to_clifford()
    if isinstance(x, (int, float, np.floating)):
        return CliffordNum.scalar(n, float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as CliffordNum")


def clifford_product(a: CliffordNum, b: CliffordNum) -> CliffordNum:
    """Bilinear associative product of two elements of the same R_n."""
    if a.n != b.n:
        raise DimensionMismatchError(f"mixed algebras R_{a.n} and R_{b.n}")
    return CliffordNum(a.n, blade_contract(",->", a.coeffs, b.coeffs, a.n))


def conjugate(a: CliffordNum) -> CliffordNum:
    return a.conjugate()


def abs_value(a) -> float:
    return a.abs()


@dataclass(frozen=True, eq=False)
class Paravector:
    """Paravector s0 + s1 e_1 + ... + sn e_n in R^(n+1)."""

    s0: float
    svec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s0", float(self.s0))
        object.__setattr__(self, "svec", np.asarray(self.svec, dtype=float))
        _check_n(self.n)

    @property
    def n(self):
        return self.svec.shape[0]

    def imag_norm(self):
        return float(np.linalg.norm(self.svec))

    def abs2(self):
        return self.s0 * self.s0 + float(np.dot(self.svec, self.svec))

    def abs(self):
        return math.sqrt(self.abs2())

    def conjugate(self):
        return Paravector(self.s0, -self.svec)

    def is_zero(self):
        return self.s0 == 0.0 and not self.svec.any()

    def to_clifford(self):
        c = np.zeros(1 << self.n)
        c[0] = self.s0
        for i in range(self.n):
            c[1 << i] = self.svec[i]
        return CliffordNum(self.n, c)

    def left_matrix(self):
        return self.to_clifford().left_matrix()

    def angle(self):
        """Polar angle of (s0, |Im s|) in [0, pi]."""
        return math.atan2(self.imag_norm(), self.s0)

    def __eq__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.s0 == other.s0 and np.array_equal(self.svec, other.svec)

    def __repr__(self):
        parts = [f"{self.s0:g}"]
        parts += [f"{v:g}*e{i + 1}" for i, v in enumerate(self.svec) if v != 0.0]
        return "Paravector(" + " + ".join(parts) + ")"


def unit_imag(n, axis=0):
    """Unit imaginary paravector along a coordinate axis (element of the sphere S)."""
    if not 0 <= axis < n:
        raise ArgumentError(f"axis {axis} outside 0..{n - 1}")
    v = np.zeros(n)
    v[axis] = 1.0
    return Paravector(0.0, v)


def polar_decompose(s: Paravector):
    """Write s = r exp(J phi) with r = |s|, phi in [0, pi] and J a unit imaginary.

    On the real axis the imaginary direction degenerates; J = e_1 is returned
    there.
    """
    if s.is_zero():
        raise DegenerateInputError("cannot polar-decompose the zero paravector")
    r = s.abs()
    y = s.imag_norm()
    phi = math.atan2(y, s.s0)
    if y == 0.0:
        return r, unit_imag(s.n), phi
    return r, Paravector(0.0, s.svec / y), phi


def from_polar(r, axis: Paravector, phi):
    """Paravector r (cos phi + J sin phi) for a unit imaginary J."""
    return Paravector(r * math.cos(phi), (r * math.sin(phi)) * axis.svec)


@dataclass(frozen=True)
class DoubleSector:
    """Open double sector of half-angle omega around the real axis."""

    omega: float

    def __post_init__(self):
        if not 0.0 < self.omega < math.pi / 2:
            raise ArgumentError(f"sector angle {self.omega} outside (0, pi/2)")

    def contains(self, s: Paravector) -> bool:
        if s.is_zero():
            return False
        phi = s.angle()
        return phi < self.omega or phi > math.pi - self.omega


def in_sector(s: Paravector, sector: DoubleSector) -> bool:
    return sector.contains(s)
