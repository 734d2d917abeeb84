import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.clifford import multiplication_table

from conftest import brute_blade_product, mask_to_gens, random_clifford, random_paravector


def test_generator_relations():
    e1 = cs.CliffordNum.basis(2, 0b01)
    e2 = cs.CliffordNum.basis(2, 0b10)
    assert e1 * e2 == cs.CliffordNum.basis(2, 0b11)
    assert e1 * e1 == cs.CliffordNum.scalar(2, -1.0)
    assert e2 * e1 == -cs.CliffordNum.basis(2, 0b11)


def test_bivector_square():
    e12 = cs.CliffordNum.basis(2, 0b11)
    assert e12 * e12 == cs.CliffordNum.scalar(2, -1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_against_brute_force(n):
    signs, masks = multiplication_table(n)
    for a in range(1 << n):
        for b in range(1 << n):
            sign, gens = brute_blade_product(mask_to_gens(a), mask_to_gens(b))
            assert masks[a, b] == sum(1 << g for g in gens)
            assert signs[a, b] == sign


def test_product_dimension_mismatch():
    a = cs.CliffordNum.scalar(1, 1.0)
    b = cs.CliffordNum.scalar(2, 1.0)
    with pytest.raises(cs.DimensionMismatchError):
        cs.clifford_product(a, b)


def test_conjugate_values():
    assert cs.conjugate(cs.CliffordNum.scalar(2, 1.0)) == cs.CliffordNum.scalar(2, 1.0)
    e1 = cs.CliffordNum.basis(2, 0b01)
    assert cs.conjugate(e1) == -e1
    e12 = cs.CliffordNum.basis(2, 0b11)
    assert cs.conjugate(e12) == -e12
    e123 = cs.CliffordNum.basis(3, 0b111)
    assert cs.conjugate(e123) == e123


def test_abs_values():
    assert cs.abs_value(cs.CliffordNum(1, [1.0, 1.0])) == pytest.approx(math.sqrt(2))
    assert cs.abs_value(cs.CliffordNum.basis(2, 0b11)) == 1.0
    assert cs.abs_value(cs.CliffordNum(2, [3.0, 0.0, 4.0, 0.0])) == 5.0


def test_associativity_random(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            a, b, c = (random_clifford(rng, n) for _ in range(3))
            lhs = (a * b) * c
            rhs = a * (b * c)
            scale = max(lhs.abs(), 1.0)
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * scale)


def test_conjugation_anti_automorphism(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            a, b = random_clifford(rng, n), random_clifford(rng, n)
            lhs = cs.conjugate(a * b)
            rhs = cs.conjugate(b) * cs.conjugate(a)
            scale = max(lhs.abs(), 1.0)
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * scale)


def test_paravector_norm_product(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            s = random_paravector(rng, n)
            prod = s.to_clifford() * s.conjugate().to_clifford()
            expected = cs.CliffordNum.scalar(n, s.abs2())
            assert np.allclose(prod.coeffs, expected.coeffs, atol=1e-12 * max(s.abs2(), 1.0))


def test_polar_decompose_cases():
    r, axis, phi = cs.polar_decompose(cs.Paravector(0.0, np.array([2.0])))
    assert (r, phi) == (2.0, math.pi / 2)
    assert np.array_equal(axis.svec, [1.0])

    r, axis, phi = cs.polar_decompose(cs.Paravector(-3.0, np.zeros(2)))
    assert (r, phi) == (3.0, math.pi)
    assert np.array_equal(axis.svec, [1.0, 0.0])  # library default e_1

    s = cs.Paravector(1.0, np.array([0.0, 1.0]))
    r, axis, phi = cs.polar_decompose(s)
    assert r == pytest.approx(math.sqrt(2))
    assert phi == pytest.approx(math.pi / 4)
    back = cs.from_polar(r, axis, phi)
    assert back.s0 == pytest.approx(s.s0, abs=1e-15)
    assert np.allclose(back.svec, s.svec, atol=1e-15)


def test_polar_decompose_zero_raises():
    with pytest.raises(cs.DegenerateInputError):
        cs.polar_decompose(cs.Paravector(0.0, np.zeros(2)))


def test_sector_membership():
    d = cs.DoubleSector(0.1)
    assert cs.in_sector(cs.Paravector(1.0, np.zeros(1)), d)
    assert not cs.in_sector(cs.Paravector(0.0, np.array([1.0])), cs.DoubleSector(1.55))
    d3 = cs.DoubleSector(math.pi / 3)
    assert cs.in_sector(cs.Paravector(1.0, np.array([1.0])), d3)  # angle pi/4
    assert cs.in_sector(cs.Paravector(-1.0, np.array([1.0])), d3)
    assert not cs.in_sector(cs.Paravector(0.0, np.zeros(1)), d)


def test_sector_membership_axially_symmetric(rng):
    d = cs.DoubleSector(0.9)
    for _ in range(50):
        s = random_paravector(rng, 3)
        y = s.imag_norm()
        rotated = cs.Paravector(s.s0, np.array([y, 0.0, 0.0]))
        assert d.contains(s) == d.contains(rotated)


def test_left_matrix_realizes_product(rng):
    for n in (1, 2, 3):
        a = random_clifford(rng, n)
        b = random_clifford(rng, n)
        assert np.allclose((a * b).coeffs, a.left_matrix() @ b.coeffs, atol=1e-13)
        assert np.allclose((b * a).coeffs, a.right_matrix() @ b.coeffs, atol=1e-13)


def test_paravector_norms_scale_before_they_square():
    # |s| = 1e200 at slice angle 0.5: the squares overflow, the norms do not,
    # and the regularizer takes s inside its sector (pytest turns an
    # overflow warning into an error)
    s = cs.Paravector(1e200 * math.cos(0.5), [1e200 * math.sin(0.5)])
    assert s.abs() == pytest.approx(1e200, rel=1e-15)
    assert s.imag_norm() == pytest.approx(1e200 * math.sin(0.5), rel=1e-15)
    assert s.angle() == pytest.approx(0.5, rel=1e-15)
    value = cs.regularizer()(s)
    inverse = 1.0 / complex(s.s0, s.svec[0])
    assert abs(complex(value.s0, value.svec[0]) - inverse) <= 1e-15 * abs(inverse)


def test_clifford_norm_scales_before_it_squares():
    # the squares of 1e200 overflow, the norm does not (pytest turns an
    # overflow warning into an error)
    a = cs.CliffordNum(1, [1e200, 1e200])
    assert a.abs() == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-15)
    assert cs.abs_value(a) == a.abs()
