import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec.module import block_products, spectral_norm

from conftest import random_clifford, random_operator, random_paravector, random_vector


def test_inner_product_scalar_part_is_norm(rng):
    for n, m in [(1, 2), (2, 3), (3, 2)]:
        v = random_vector(rng, n, m)
        ip = cs.inner_product(v, v)
        assert ip.scalar_part == pytest.approx(v.norm() ** 2, rel=1e-12)


def test_inner_product_right_linearity(rng):
    for _ in range(30):
        n, m = 2, 3
        v, w = random_vector(rng, n, m), random_vector(rng, n, m)
        s = random_clifford(rng, n)
        lhs = cs.inner_product(v, cs.scalar_mul_right(w, s))
        rhs = cs.inner_product(v, w) * s
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * max(1.0, rhs.abs()))


def test_inner_product_right_antilinearity(rng):
    for _ in range(30):
        n, m = 2, 3
        v, w = random_vector(rng, n, m), random_vector(rng, n, m)
        s = random_clifford(rng, n)
        lhs = cs.inner_product(cs.scalar_mul_right(v, s), w)
        rhs = cs.conjugate(s) * cs.inner_product(v, w)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * max(1.0, rhs.abs()))


def test_inner_product_left_scalar_moves(rng):
    n, m = 2, 2
    v, w = random_vector(rng, n, m), random_vector(rng, n, m)
    s = random_clifford(rng, n)
    lhs = cs.inner_product(v, cs.scalar_mul_left(s, w))
    rhs = cs.inner_product(cs.scalar_mul_left(cs.conjugate(s), v), w)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * max(1.0, rhs.abs()))


def test_scalar_part_equals_flat_dot(rng):
    v, w = random_vector(rng, 3, 2), random_vector(rng, 3, 2)
    assert cs.scalar_part(v, w) == pytest.approx(
        cs.inner_product(v, w).scalar_part, rel=1e-12)


def test_paravector_multiplication_isometry(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            s = random_paravector(rng, n)
            v = random_vector(rng, n, 2)
            sv = cs.scalar_mul_left(s, v)
            assert sv.norm() == pytest.approx(s.abs() * v.norm(), rel=1e-12)
            vs = cs.scalar_mul_right(v, s)
            assert vs.norm() == pytest.approx(s.abs() * v.norm(), rel=1e-12)


def test_general_scalar_multiplication_bound(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            s = random_clifford(rng, n)
            v = random_vector(rng, n, 2)
            bound = 2.0 ** (n / 2.0) * s.abs() * v.norm()
            assert cs.scalar_mul_left(s, v).norm() <= bound * (1 + 1e-12)
            assert cs.scalar_mul_right(v, s).norm() <= bound * (1 + 1e-12)


def test_unit_scalar_acts_trivially(rng):
    v = random_vector(rng, 2, 3)
    one = cs.CliffordNum.scalar(2, 1.0)
    assert np.array_equal(cs.scalar_mul_left(one, v).coeffs, v.coeffs)


def test_real_representation_identity():
    ident = cs.CliffordOperator.identity(2, 3)
    assert np.array_equal(cs.rho_matrix(ident), np.eye(3 * 4))


def test_real_representation_multiplicative(rng):
    for n, m in [(1, 2), (2, 2), (3, 4)]:
        S, T = random_operator(rng, n, m), random_operator(rng, n, m)
        lhs = cs.rho_matrix(S @ T)
        rhs = cs.rho_matrix(S) @ cs.rho_matrix(T)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))
        # independent route: composed application on the flattened basis
        dim = m * (1 << n)
        for k in range(dim):
            basis_vec = cs.ModuleVector.from_flat(n, m, np.eye(dim)[k])
            col = S.apply(T.apply(basis_vec)).flatten()
            assert np.allclose(lhs[:, k], col, atol=1e-12 * max(1.0, np.abs(col).max()))


def test_real_representation_applies(rng):
    for n, m in [(1, 2), (2, 3)]:
        T = random_operator(rng, n, m)
        v = random_vector(rng, n, m)
        direct = T.apply(v)
        via_rho = cs.rho_matrix(T) @ v.flatten()
        assert np.allclose(direct.flatten(), via_rho, atol=1e-12 * max(1.0, np.abs(via_rho).max()))
        assert np.linalg.norm(via_rho) == pytest.approx(direct.norm(), rel=1e-12)


def test_operator_from_real_roundtrip(rng):
    T = random_operator(rng, 2, 3)
    back = cs.operator_from_real(cs.rho_matrix(T), 2, 3)
    assert np.allclose(back.coeffs, T.coeffs, atol=1e-14)


def test_adjoint_examples(rng):
    sym = cs.CliffordOperator.from_real_matrix([[2.0, 1.0], [1.0, -1.0]], n=1)
    assert np.array_equal(cs.adjoint_operator(sym).coeffs, sym.coeffs)

    T = cs.CliffordOperator(1, 1, np.array([[[0.0, 1.0]]]))  # entry e_1
    Tstar = cs.adjoint_operator(T)
    assert np.array_equal(Tstar.coeffs, np.array([[[0.0, -1.0]]]))

    R = random_operator(rng, 2, 3)
    assert np.array_equal(cs.adjoint_operator(cs.adjoint_operator(R)).coeffs, R.coeffs)


def test_adjoint_pairing_identity(rng):
    for n, m in [(1, 2), (2, 3), (3, 2)]:
        T = random_operator(rng, n, m)
        pair = cs.adjoint_pair(T)
        for _ in range(20):
            v, w = random_vector(rng, n, m), random_vector(rng, n, m)
            lhs = cs.inner_product(pair.Tstar.apply(w), v)
            rhs = cs.inner_product(w, pair.T.apply(v))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10 * max(1.0, rhs.abs()))


def test_adjoint_is_rho_transpose(rng):
    for n, m in [(1, 2), (2, 2), (3, 3)]:
        T = random_operator(rng, n, m)
        assert np.allclose(cs.rho_matrix(cs.adjoint_operator(T)),
                           cs.rho_matrix(T).T, atol=1e-12)


def test_right_linearity_of_operators(rng):
    n, m = 2, 3
    T = random_operator(rng, n, m)
    for _ in range(100):
        v = random_vector(rng, n, m)
        s = random_clifford(rng, n)
        lhs = T.apply(cs.scalar_mul_right(v, s))
        rhs = cs.scalar_mul_right(T.apply(v), s)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10 * max(1.0, rhs.norm()))


def test_operator_norm_values():
    assert cs.operator_norm(cs.CliffordOperator.identity(2, 2)) == pytest.approx(1.0)
    diag = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, 2.0]], n=1)
    assert cs.operator_norm(diag) == pytest.approx(2.0)


def test_operator_norm_dominates_samples(rng):
    # 10^4 random directions reach the norm to 1% only at small dimension
    T = random_operator(rng, 1, 2)
    norm = cs.operator_norm(T)
    rho = cs.rho_matrix(T)
    vs = rng.standard_normal((10_000, rho.shape[0]))
    ratios = np.linalg.norm(vs @ rho.T, axis=1) / np.linalg.norm(vs, axis=1)
    assert ratios.max() <= norm * (1 + 1e-10)
    assert ratios.max() >= 0.99 * norm


def test_solve_identity_and_diag(rng):
    ident = cs.CliffordOperator.identity(1, 2)
    w = random_vector(rng, 1, 2)
    assert np.allclose(cs.solve_operator(ident, w).coeffs, w.coeffs)

    diag = cs.CliffordOperator.from_real_matrix([[2.0, 0.0], [0.0, 4.0]], n=1)
    w = cs.ModuleVector(1, 2, np.array([[1.0, 0.0], [1.0, 0.0]]))
    v = cs.solve_operator(diag, w)
    assert np.allclose(v.coeffs[:, 0], [0.5, 0.25])


def test_solve_residual(rng):
    for _ in range(10):
        T = random_operator(rng, 2, 3)
        T = T + 4.0 * cs.CliffordOperator.identity(2, 3)  # keep well conditioned
        w = random_vector(rng, 2, 3)
        v = cs.solve_operator(T, w)
        res = T.apply(v) - w
        assert res.norm() <= 1e-10 * w.norm()


def test_solve_singular_raises():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, 0.0]], n=1)
    w = cs.ModuleVector(1, 2, np.ones((2, 2)))
    with pytest.raises(cs.NotInvertibleError) as err:
        cs.solve_operator(T, w)
    assert err.value.sigma_min is not None
    assert err.value.sigma_min <= 1e-10


def test_spectral_norm_scales_only_the_matrices_whose_gram_overflows(rng):
    # A^H A overflows at 1e200: the norm is 2^e ||2^-e A||, and every
    # other matrix of the stack keeps its norm bit for bit
    assert cs.module.spectral_norm(np.array([[1e200]])) == 1e200
    a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    alone = cs.module.spectral_norm(a)
    a[1] *= 2.0 ** 700
    norms = cs.module.spectral_norm(a)
    assert norms[[0, 2]].tolist() == alone[[0, 2]].tolist()
    assert norms[1] == pytest.approx(alone[1] * 2.0 ** 700, rel=1e-14)


def test_spectral_norm_scales_the_matrices_whose_gram_underflows(rng):
    # |a|^2 underflows at 1e-300 and loses bits at 1e-160: a 1 x 1 norm is
    # |a| exactly, and a matrix whose A^H A lies below 2^-1000 is scaled by
    # 2^-e while every other matrix of the stack keeps its norm bit for bit
    for x in (1e-300, -1e-160, 5e-324, 3e-310j, 1e200):
        assert spectral_norm(np.array([[x]])) == abs(x)
    for k in (2, 4):
        a = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
        alone = spectral_norm(a)
        a[1] *= 2.0 ** -1000
        norms = spectral_norm(a)
        assert norms[[0, 2]].tolist() == alone[[0, 2]].tolist()
        if k == 2:   # the closed form commutes with the scaling
            assert norms[1] == alone[1] * 2.0 ** -1000
        else:
            assert norms[1] == pytest.approx(alone[1] * 2.0 ** -1000, rel=1e-14)


EPS = np.finfo(float).eps


@st.composite
def small_stacks(draw, k):
    """A stack of k x k matrices, k <= 2, real or complex: random, a scalar
    times a unitary plus 1e-12 noise (near-equal singular values), rank 1,
    or zero, with entries near 1, 1e+-160 or 1e+-200."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())

    def sample(*shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    kind = draw(st.sampled_from(["random", "unitary", "rank1", "zero"]))
    a = {"random": lambda: sample(6, k, k),
         "unitary": lambda: (np.linalg.qr(sample(6, k, k))[0] * rng.standard_normal((6, 1, 1))
                             + 1e-12 * sample(6, k, k)),
         "rank1": lambda: sample(6, k, 1) * sample(6, 1, k).conj(),
         "zero": lambda: 0.0 * sample(6, k, k)}[kind]()
    return a * 10.0 ** draw(st.sampled_from([0, 160, -160, 200, -200]))


def _unit_scaled(a):
    """(2^-e A, e) per matrix, 2^e > max |a_ij|: exact, and no Gram over- or underflows."""
    e = np.frexp(np.abs(a).max(axis=(-1, -2)))[1]
    return a * np.exp2(-e)[:, None, None], e


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda k: st.tuples(small_stacks(k), small_stacks(k))))
def test_closed_form_norms_and_products_match_lapack_and_matmul(pair):
    a, b = pair
    # the norm: within 4 eps of sqrt(lambda_max) of A^H A by eigvalsh, the
    # reference taken of 2^-e A, whose A^H A neither over- nor underflows
    unit, e = _unit_scaled(a)
    want = np.ldexp(np.sqrt(np.maximum(
        np.linalg.eigvalsh(np.swapaxes(unit, -1, -2).conj() @ unit)[:, -1], 0.0)), e)
    got = spectral_norm(a)
    assert np.all(np.abs(got - want) <= 4.0 * EPS * want)
    # the product: within 2 eps ||A|| ||B|| of matmul
    a, b = unit, _unit_scaled(b)[0]
    gap = np.linalg.norm(block_products(a, b) - a @ b, 2, axis=(-2, -1))
    assert np.all(gap <= 2.0 * EPS * spectral_norm(a) * spectral_norm(b))
