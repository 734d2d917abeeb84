import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs

from conftest import OMEGA, THETA, random_operator, random_paravector


def scalar_resolvent(s, lam):
    """Closed form of the left S-resolvent for T = lam * Id, lam real."""
    denom = (s.s0 - lam) ** 2 + s.imag_norm() ** 2
    sbar = s.conjugate()
    return cs.Paravector(sbar.s0 - lam, sbar.svec), denom


def test_q_operator_scalar_case(rng):
    for _ in range(20):
        lam = rng.standard_normal()
        s = random_paravector(rng, 2)
        T = cs.CliffordOperator.from_real_matrix(lam * np.eye(2), n=2)
        Q = cs.q_operator(s, T)
        expected = ((s.s0 - lam) ** 2 + s.imag_norm() ** 2) * np.eye(8)
        assert np.allclose(cs.rho_matrix(Q), expected, atol=1e-12 * max(1.0, abs(lam) ** 2))


def test_q_operator_real_parameter(diag1m2):
    s = cs.Paravector(0.5, np.zeros(1))
    Q = cs.q_operator(s, diag1m2)
    expected = (diag1m2 @ diag1m2).coeffs - 2 * 0.5 * diag1m2.coeffs
    expected = expected.copy()
    expected[0, 0, 0] += 0.25
    expected[1, 1, 0] += 0.25
    assert np.array_equal(Q.coeffs, expected)


def test_q_operator_rotation_bitwise(rng, diag1m2):
    T3 = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=3)
    y = 0.3
    variants = [
        cs.Paravector(0.7, np.array([y, 0.0, 0.0])),
        cs.Paravector(0.7, np.array([0.0, y, 0.0])),
        cs.Paravector(0.7, np.array([0.0, 0.0, -y])),
    ]
    qs = [cs.q_operator(s, T3).coeffs for s in variants]
    assert np.array_equal(qs[0], qs[1])
    assert np.array_equal(qs[0], qs[2])


def test_left_resolvent_scalar_formula(rng):
    for _ in range(20):
        lam = rng.standard_normal()
        s = random_paravector(rng, 2)
        if (s.s0 - lam) ** 2 + s.imag_norm() ** 2 < 1e-3:
            continue
        T = cs.CliffordOperator.from_real_matrix(lam * np.eye(2), n=2)
        R = cs.left_s_resolvent(s, T)
        num, denom = scalar_resolvent(s, lam)
        expected = cs.CliffordOperator.scalar_mul(
            cs.Paravector(num.s0 / denom, num.svec / denom), 2)
        assert np.allclose(cs.rho_matrix(R), cs.rho_matrix(expected), atol=1e-10)


def test_left_equals_right_for_real_operators(rng, diag1m2, jordan):
    for T in (diag1m2, jordan):
        for _ in range(10):
            s = random_paravector(rng, 1)
            if cs.pseudo_resolvent_point(s, T).sigma_min < 1e-6:
                continue
            L = cs.left_s_resolvent(s, T)
            R = cs.right_s_resolvent(s, T)
            assert np.allclose(cs.rho_matrix(L), cs.rho_matrix(R), atol=1e-10)


def test_resolvent_scaling_identity(rng, diag12):
    for _ in range(10):
        t = float(rng.uniform(0.2, 5.0)) * float(rng.choice([-1.0, 1.0]))
        s = random_paravector(rng, 1)
        if cs.pseudo_resolvent_point(cs.Paravector(s.s0 / t, s.svec / t), diag12).sigma_min < 1e-6:
            continue
        lhs = (1.0 / t) * cs.rho_matrix(
            cs.left_s_resolvent(cs.Paravector(s.s0 / t, s.svec / t), diag12))
        tT = cs.CliffordOperator(1, 2, t * diag12.coeffs)
        rhs = cs.rho_matrix(cs.left_s_resolvent(s, tT))
        assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


def test_resolvent_on_spectrum_raises(diag12):
    with pytest.raises(cs.NotInvertibleError):
        cs.left_s_resolvent(cs.Paravector(1.0, np.zeros(1)), diag12)


def test_scan_detects_real_spectrum(diag1m2):
    grid = cs.GridSpec(-3.0, 3.0, 0.0, 1.0, 25, 5)
    scan = cs.scan_spectrum_slice(diag1m2, grid)
    found = sorted((d.x, d.y) for d in scan.detections)
    assert found == [(-2.0, 0.0), (1.0, 0.0)]
    assert all(d.kind == "real" for d in scan.detections)


def test_scan_detects_sphere(e1_id):
    grid = cs.GridSpec(-1.5, 1.5, 0.0, 1.5, 13, 7)
    scan = cs.scan_spectrum_slice(e1_id, grid)
    assert [(d.x, d.y, d.kind) for d in scan.detections] == [(0.0, 1.0, "sphere")]


def test_scan_empty_region():
    T = cs.CliffordOperator.from_real_matrix([[1.0]], n=1)
    scan = cs.scan_spectrum_slice(T, cs.GridSpec(2.0, 3.0, 0.0, 0.5, 9, 5))
    assert scan.detections == ()


def test_scan_values_nonnegative_and_rotation_exact(diag1m2):
    grid = cs.GridSpec(-3.0, 3.0, 0.0, 2.0, 13, 5)
    scan = cs.scan_spectrum_slice(diag1m2, grid)
    assert np.all(scan.values >= 0.0)
    # sigma_min is a function of (x, y) only, so a rescan is bitwise equal
    again = cs.scan_spectrum_slice(diag1m2, grid)
    assert np.array_equal(scan.values, again.values)


def test_scan_matches_eigenvalue_oracle(rng):
    # detected spectrum of a real symmetric operator equals its eigenvalues
    M = rng.standard_normal((3, 3))
    M = (M + M.T) / 2 + np.diag([3.0, 0.0, -3.0])
    T = cs.CliffordOperator.from_real_matrix(M, n=1)
    eigs = np.linalg.eigvalsh(M)
    grid = cs.GridSpec(-8.0, 8.0, 0.0, 1.0, 257, 3)
    scan = cs.scan_spectrum_slice(T, grid, tol=1e-4)
    step = grid.step()
    for lam in eigs:
        assert any(abs(d.x - lam) <= step and d.y == 0.0 for d in scan.detections)


def test_check_bisectorial_passes_for_real_spectrum(diag1m2):
    report = cs.check_bisectorial(diag1m2, 0.1)
    assert report.injective
    assert report.spectrum_in_sector
    assert report.certified
    cs_values = [c for _, c in report.c_phi_table]
    assert all(np.isfinite(cs_values))
    # monotone decreasing within sampling noise
    for a, b in zip(cs_values, cs_values[1:]):
        assert b <= a * 1.05


def test_check_bisectorial_fails_for_sphere(e1_id):
    for omega in (0.2, 0.8, 1.4):
        report = cs.check_bisectorial(e1_id, omega)
        assert not report.spectrum_in_sector
        assert not report.certified


def test_check_bisectorial_flags_injectivity():
    T = cs.CliffordOperator.from_real_matrix([[0.0, 0.0], [0.0, 1.0]], n=1)
    report = cs.check_bisectorial(T, 0.3)
    assert not report.injective
    assert report.spectrum_in_sector  # {0, 1} lies in the closed sector


def test_check_bisectorial_refuses_rotation_outside_sector():
    # eigenvalues 0.3 +- 1.1i sit at slice angle 74.7 degrees, far outside 15
    T = cs.CliffordOperator.from_real_matrix([[0.3, -1.1], [1.1, 0.3]], n=1)
    report = cs.check_bisectorial(T, math.pi / 12)
    assert not report.certified
    assert not report.spectrum_in_sector
    assert [(d.x, d.y, d.kind) for d in report.detections] == [
        (pytest.approx(0.3, abs=1e-12), pytest.approx(1.1, abs=1e-12), "sphere")]


@st.composite
def planted_operators(draw):
    """(T, omega, contained): T = V diag(blocks) V^-1 over R_n with real
    eigenvalues and rotation-scaling blocks a +- ib, V well conditioned, and
    every slice angle at least 0.02 rad away from omega."""
    omega = draw(st.floats(0.15, 1.2))
    n_real = draw(st.integers(0, 2))
    n_pairs = draw(st.integers(0 if n_real else 1, 2))
    blocks, contained = [], True
    for _ in range(n_real):
        blocks.append([[draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))]])
    for _ in range(n_pairs):
        alpha = draw(st.floats(0.0, math.pi / 2 - 0.04))
        if alpha > omega - 0.02:
            alpha += 0.04
        contained &= alpha < omega
        radius = draw(st.floats(0.1, 3.0))
        a = draw(st.sampled_from([-1.0, 1.0])) * radius * math.cos(alpha)
        b = radius * math.sin(alpha)
        blocks.append([[a, -b], [b, a]])
    m = sum(len(b) for b in blocks)
    planted = np.zeros((m, m))
    k = 0
    for b in blocks:
        planted[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, m))) @ q2   # cond(V) <= e
    T = cs.CliffordOperator.from_real_matrix(v @ planted @ np.linalg.inv(v),
                                             n=draw(st.integers(1, 2)))
    return T, omega, contained


@settings(max_examples=25, derandomize=True, deadline=None)
@given(planted_operators())
def test_certified_iff_planted_spectrum_in_sector(case):
    T, omega, contained = case
    report = cs.check_bisectorial(T, omega)
    assert report.certified == contained
    if report.certified:
        e = cs.regularizer(0.5 * (omega + math.pi / 2))
        result = cs.omega_calculus(e, T, report)
        gap = np.linalg.norm(cs.rho_matrix(result.op)
                             - cs.rho_matrix(cs.rational_calculus(e, T)), 2)
        assert gap <= result.combined_error + 1e-10


def test_bad_angles_raise(diag12):
    with pytest.raises(cs.ArgumentError):
        cs.check_bisectorial(diag12, 0.0)
    with pytest.raises(cs.ArgumentError):
        cs.check_bisectorial(diag12, math.pi / 2)


def test_empty_grid_rejected():
    with pytest.raises(cs.ArgumentError):
        cs.GridSpec(0.0, 1.0, 0.0, 1.0, 0, 3)
    with pytest.raises(cs.ArgumentError):
        cs.GridSpec(0.0, 1.0, -0.5, 1.0, 3, 3)


def test_s_resolvent_identity_on_non_normal_operators(rng):
    """Q_s[T] S_L^{-1}(s, T) = sbar - T over R_2 and R_3, and the contour
    engine stores the same left S-resolvent at its nodes."""
    for n in (2, 3):
        for _ in range(5):
            T = random_operator(rng, n, 2)
            s = random_paravector(rng, n)
            if cs.pseudo_resolvent_point(s, T).sigma_min < 1e-3:
                continue
            q = cs.rho_matrix(cs.q_operator(s, T))
            left = cs.rho_matrix(cs.left_s_resolvent(s, T))
            rhs = cs.rho_matrix(cs.CliffordOperator.scalar_mul(s.conjugate(), 2) - T)
            scale = np.linalg.norm(q, 2) * np.linalg.norm(left, 2)
            assert np.abs(q @ left - rhs).max() <= 1e-10 * scale

        # non-normal with real spectrum {1, -2}: certified, so the engine builds
        off = rng.standard_normal(1 << n)
        coeffs = np.zeros((2, 2, 1 << n))
        coeffs[0, 0, 0], coeffs[1, 1, 0], coeffs[0, 1] = 1.0, -2.0, off
        T = cs.CliffordOperator(n, 2, coeffs)
        eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA,
                               cs.ContourConfig(nodes=64))
        for k in np.flatnonzero(np.abs(eng.u) < 1.0)[::9]:
            s = cs.Paravector(eng.z[k].real, eng.z[k].imag * cs.unit_imag(n).svec)
            expected = cs.rho_matrix(cs.left_s_resolvent(s, T))
            assert np.abs(eng.A[k] - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


def test_c_at_below_every_sampled_angle_is_infinite():
    # the first sampled angle at omega = pi/12 is 0.480; its C belongs to a
    # smaller sector and undershoots a direct sample at 0.3 (3.06 < 4.79)
    T = cs.CliffordOperator.from_real_matrix([[1.0, 3.0], [0.0, -2.0]], n=1)
    rep = cs.check_bisectorial(T, OMEGA)
    sampled = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=(0.3,))).c_phi_table[0][1]
    assert rep.c_phi_table[0][0] > 0.3
    assert rep.c_at(0.3) >= sampled
    assert rep.c_at(rep.c_phi_table[0][0]) == rep.c_phi_table[0][1]


@pytest.mark.parametrize("bounds", [
    (math.nan, 1.0, 0.0, 1.0),
    (-1.0, math.inf, 0.0, 1.0),
    (-1.0, 1.0, 0.0, math.nan),
], ids=["nan-x", "inf-x", "nan-y"])
def test_grid_spec_rejects_non_finite_bounds(bounds):
    with pytest.raises(cs.ArgumentError):
        cs.GridSpec(*bounds, 3, 3)


def test_ray_bound_matches_four_ray_svd(rng):
    # one inverse per conjugate pair of rays and sqrt(lambda_max(A^T A)) give
    # the max of |s| sigma_max(S_L^-1(s, T)) over all four rays; for this T
    # the max lies on the rays at angle -phi (3.43 there, 2.58 at +phi)
    coeffs = np.zeros((2, 2, 4))
    coeffs[0, 0, 0], coeffs[0, 0, 1] = 1.0, -0.2
    coeffs[1, 1, 0], coeffs[1, 1, 2] = -2.0, 0.3
    coeffs[0, 1] = 2.0 * rng.standard_normal(4)
    T = cs.CliffordOperator(2, 2, coeffs)
    phi = 0.5
    rep = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=(phi,)))
    radii = max(1.0, np.linalg.norm(cs.rho_matrix(T), 2)) * np.logspace(-4.0, 4.0, 200)
    axis = cs.unit_imag(2, 0).svec
    best = 0.0
    for z in np.concatenate([sign * radii * np.exp(1j * branch * phi)
                             for branch in (1.0, -1.0) for sign in (1.0, -1.0)]):
        left = cs.rho_matrix(cs.left_s_resolvent(cs.Paravector(z.real, z.imag * axis), T))
        best = max(best, abs(z) * np.linalg.svd(left, compute_uv=False)[0])
    assert rep.c_phi_table[0][1] == pytest.approx(best, rel=1e-12)
