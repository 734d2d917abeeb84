import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.quadratic import _grid_engine

from conftest import OMEGA, THETA, contour_report, random_vector


@pytest.fixture(scope="module")
def id_ctx():
    T = cs.CliffordOperator.from_real_matrix([[1.0]], n=1)
    return T, cs.check_bisectorial(T, OMEGA)


def test_quadratic_norm_identity(id_ctx):
    T, rep = id_ctx
    v = cs.ModuleVector(1, 1, np.array([[1.0, 0.0]]))
    qn = cs.quadratic_norm(cs.regularizer(THETA), T, v, report=rep)
    assert qn == pytest.approx(1.0, abs=1e-6)


def test_quadratic_norm_self_adjoint_scale_invariance(rng, diag1m2):
    rep = cs.check_bisectorial(diag1m2, OMEGA)
    e = cs.regularizer(THETA)
    engine = cs.ContourEngine(diag1m2, rep, THETA)
    qcfg = cs.default_quad_grid(diag1m2)
    t_grid, w_grid = qcfg.grid()
    family = (t_grid, w_grid) + engine.evaluate_family(e, t_grid)
    for _ in range(5):
        v = random_vector(rng, 1, 2)
        qn = cs.quadratic_norm(e, diag1m2, v, family=family)
        assert qn == pytest.approx(v.norm(), rel=1e-6)


def test_quadratic_norm_invariant_under_operator_scaling(rng, diag12):
    e = cs.regularizer(THETA)
    v = random_vector(rng, 1, 2)
    rep = cs.check_bisectorial(diag12, OMEGA)
    qn1 = cs.quadratic_norm(e, diag12, v, report=rep)
    cT = cs.CliffordOperator(1, 2, 3.0 * diag12.coeffs)
    rep_c = cs.check_bisectorial(cT, OMEGA)
    qn2 = cs.quadratic_norm(e, cT, v, cs.default_quad_grid(cT), report=rep_c)
    assert qn2 == pytest.approx(qn1, rel=1e-6)


def test_frame_operator_identity(id_ctx):
    T, rep = id_ctx
    theta, trunc, disc = cs.frame_operator(cs.regularizer(THETA), T, report=rep)
    assert np.allclose(theta, np.eye(2), atol=1e-6)
    assert trunc >= 0 and disc >= 0


def test_frame_operator_gram_structure(rng, jordan):
    rep = contour_report(jordan)
    theta, _, _ = cs.frame_operator(cs.regularizer(THETA), jordan, report=rep)
    assert np.allclose(theta, theta.T, atol=1e-12)
    assert np.linalg.eigvalsh(theta).min() >= -1e-10


def test_frame_operator_diag(diag1m2):
    rep = cs.check_bisectorial(diag1m2, OMEGA)
    theta, _, _ = cs.frame_operator(cs.regularizer(THETA), diag1m2, report=rep)
    assert np.allclose(theta, np.eye(4), atol=1e-6)


def test_frame_bounds_identity(id_ctx):
    T, rep = id_ctx
    fb = cs.frame_bounds(cs.regularizer(THETA), T, report=rep)
    assert fb.c_lower == pytest.approx(1.0, abs=1e-5)
    assert fb.d_upper == pytest.approx(1.0, abs=1e-5)


def test_frame_bounds_diag(diag1m2):
    rep = cs.check_bisectorial(diag1m2, OMEGA)
    fb = cs.frame_bounds(cs.regularizer(THETA), diag1m2, report=rep)
    assert fb.c_lower == pytest.approx(1.0, abs=1e-5)
    assert fb.d_upper == pytest.approx(1.0, abs=1e-5)


def test_frame_bounds_jordan_closed_form(jordan):
    # Theta for the Jordan block is diag(1, 4/3) tensor I_2:
    # int a^2 dt/|t| = 1, int a b dt/|t| = 0, int b^2 dt/|t| = 1/3
    # with a = t/(1+t^2), b = t(1-t^2)/(1+t^2)^2
    rep = contour_report(jordan)
    fb = cs.frame_bounds(cs.regularizer(THETA), jordan, report=rep)
    assert fb.c_lower == pytest.approx(1.0, abs=1e-6)
    assert fb.d_upper == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
    assert 0.0 < fb.c_lower < fb.d_upper
    expected = np.kron(np.diag([1.0, 4.0 / 3.0]), np.eye(2))
    assert np.allclose(fb.theta, expected, atol=1e-6)


def test_frame_sandwich(rng, jordan):
    rep = contour_report(jordan)
    e = cs.regularizer(THETA)
    engine = cs.ContourEngine(jordan, rep, THETA)
    qcfg = cs.default_quad_grid(jordan)
    t_grid, w_grid = qcfg.grid()
    family = (t_grid, w_grid) + engine.evaluate_family(e, t_grid)
    fb = cs.frame_bounds(e, jordan, family=family)
    tol = fb.truncation_error + fb.discretization_error + 1e-9
    for _ in range(100):
        v = random_vector(rng, 1, 2)
        qn = cs.quadratic_norm(e, jordan, v, family=family)
        assert fb.c_lower * v.norm() - tol <= qn <= fb.d_upper * v.norm() + tol


def _frame_pair(g, T, report):
    """The frame bounds of T and T* from the one family of T on the default
    grid and the engine of its lattice at the stride the rule picks for g,
    as ``frame`` takes them."""
    t, w, engine, _ = _grid_engine(T, report, g.theta, [g])
    return cs.family_frames(g, engine, t, w, adjoint=True)[:2]


def test_adjoint_frame_bounds(jordan):
    # T*'s frame from the blocks B^H of T's family against T*'s own
    # certificate, engine and family
    rep = contour_report(jordan)
    e = cs.regularizer(THETA)
    _, fb_star = _frame_pair(e, jordan, rep)
    direct = cs.frame_bounds(e, cs.adjoint_operator(jordan),
                             report=contour_report(cs.adjoint_operator(jordan)))
    assert fb_star.c_lower == pytest.approx(direct.c_lower, rel=1e-10)
    assert fb_star.d_upper == pytest.approx(direct.d_upper, rel=1e-10)


def test_frame_bounds_assembles_the_gram_of_t_only(diag1m2, monkeypatch):
    # frame_bounds reads T's half of the frame pair: no Gram of T*
    grams = []
    assemble = cs.quadratic._block_frame_bounds

    def counting(w, blocks, *rest):
        grams.append(blocks.shape)
        return assemble(w, blocks, *rest)

    monkeypatch.setattr(cs.quadratic, "_block_frame_bounds", counting)
    cs.frame_bounds(cs.regularizer(THETA), diag1m2,
                    report=cs.check_bisectorial(diag1m2, OMEGA))
    assert len(grams) == 1


def test_dyadic_sign_identity_small_windows(rng, diag1m2):
    rep = cs.check_bisectorial(diag1m2, OMEGA)
    e = cs.regularizer(THETA)
    for half_window in (1, 2, 3):
        v = random_vector(rng, 1, 2)
        lhs, rhs = cs.dyadic_sign_identity(e, diag1m2, v, 0.7, half_window, report=rep)
        assert rhs == pytest.approx(lhs, abs=1e-10 * max(1.0, lhs))


def test_dyadic_sign_identity_single_index(rng, diag12):
    # window of one index: the average over two signs of ||±y||^2 is ||y||^2
    rep = cs.check_bisectorial(diag12, OMEGA)
    e = cs.regularizer(THETA)
    signs = cs.sign_matrix(1)
    assert signs.shape == (4, 2)
    v = random_vector(rng, 1, 2)
    lhs, rhs = cs.dyadic_sign_identity(e, diag12, v, 1.3, 1, report=rep)
    assert rhs == pytest.approx(lhs, abs=1e-12 * max(1.0, lhs))


def test_sign_projector_orthonormality():
    for half_window in (1, 2, 4):
        a = cs.sign_matrix(half_window)
        width = 2 * half_window
        gram = a.T @ a / a.shape[0]
        assert np.array_equal(gram, np.eye(width))


def test_sign_window_cap():
    with pytest.raises(cs.ArgumentError):
        cs.sign_matrix(11)


def test_dual_select_properties(rng):
    samples = []
    for k in range(5):
        vec = random_vector(rng, 1, 2) if k % 2 == 0 else cs.ModuleVector.zero(1, 2)
        samples.append((0.5 * k + 0.1, vec))
    dual = cs.dual_select(samples)
    for psi, psi_eps in zip(dual.psi, dual.psi_eps):
        assert psi_eps.norm() == psi.norm()
        pairing = cs.scalar_part(psi, psi_eps)
        assert psi.norm() ** 2 <= pairing * (1 + 1e-12) + 1e-15


def test_dual_select_zero_samples():
    samples = [(1.0, cs.ModuleVector.zero(2, 2))]
    dual = cs.dual_select(samples)
    assert dual.psi_eps[0].norm() == 0.0


def test_quad_grid_validation():
    with pytest.raises(cs.ArgumentError):
        cs.QuadGridConfig(1.0, 0.1)
    with pytest.raises(cs.ArgumentError):
        cs.QuadGridConfig(0.1, 1.0, nodes=8)


def test_frame_bounds_sphere_spectrum_closed_form():
    # for left multiplication by 1 + e_1 the squared quadratic integral is
    # 4 int_0^inf t/(1+4t^4) dt = pi/2 per unit vector, so c = d = sqrt(pi/2)
    T = cs.CliffordOperator.scalar_mul(cs.Paravector(1.0, np.array([1.0])), 1)
    rep = contour_report(T, 0.9, 1.2, cs.ContourConfig(phi=1.05))
    g = cs.regularizer(theta=1.2)
    fb = cs.frame_bounds(g, T, cfg=cs.ContourConfig(phi=1.05), report=rep)
    assert fb.c_lower == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)
    assert fb.d_upper == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)


def test_dyadic_sign_identity_wide_window(rng, diag12):
    # a window in the exact-enumeration cap region (2n = 14: 16384 vectors)
    rep = cs.check_bisectorial(diag12, OMEGA)
    e = cs.regularizer(THETA)
    v = random_vector(rng, 1, 2)
    lhs, rhs = cs.dyadic_sign_identity(e, diag12, v, 0.3, 7, report=rep)
    assert rhs == pytest.approx(lhs, abs=1e-10 * max(1.0, lhs))


def test_adjoint_frame_bounds_of_non_normal_operator():
    # T and T* have different frame bounds here, so returning those of T
    # instead of T* shows
    T = cs.CliffordOperator.from_real_matrix(
        [[1.0, 3.0, 0.5], [0.0, 2.0, -4.0], [0.0, 0.0, -1.5]], n=1)
    rep = contour_report(T)
    e = cs.regularizer(THETA)
    fb, fb_star = _frame_pair(e, T, rep)
    alone = cs.frame_bounds(e, T, report=rep)
    assert (fb.c_lower, fb.d_upper) == (alone.c_lower, alone.d_upper)
    assert (fb.c_lower, fb.d_upper) == pytest.approx((0.3971, 4.4689), abs=1e-4)
    assert (fb_star.c_lower, fb_star.d_upper) == pytest.approx((0.3099, 4.3384), abs=1e-4)


@pytest.mark.parametrize("call", [
    lambda g, T, v: cs.quadratic_norm(g, T, v),
    lambda g, T, v: cs.frame_operator(g, T),
    lambda g, T, v: cs.frame_bounds(g, T),
    lambda g, T, v: cs.dyadic_sign_identity(g, T, v, 0.7, 1),
], ids=["quadratic_norm", "frame_operator", "frame_bounds", "dyadic_sign_identity"])
def test_frame_layer_requires_a_certificate(diag12, call):
    # without a report (or a family or engine) nothing certifies T
    with pytest.raises(cs.PreconditionError):
        call(cs.regularizer(THETA), diag12, cs.ModuleVector.zero(1, 2))
