import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec import suite
from cliffspec.functions import ensure_bounded
from cliffspec.module import blocks_from_rho, spectral_norm
from cliffspec.quadrature import pairwise_sum
from cliffspec.spectrum import q_inverse_stack
from cliffspec.suite import INTEGRAL_TAUS, UNIFORM_PAIRS, _composition_bound_records

from conftest import (
    OMEGA,
    THETA,
    non_normal_operator,
    regularizer_family,
    self_adjoint_operator,
)


@pytest.mark.parametrize("matrix,expect_strict_gap", [
    ([[1.0, 0.0], [0.0, -2.0]], False),
    ([[1.0, 1.0], [0.0, 1.0]], True),
])
def test_suite_passes_on_bisectorial_operators(matrix, expect_strict_gap):
    T = cs.CliffordOperator.from_real_matrix(matrix, n=1)
    report = cs.run_theorem_suite(T)
    failures = [r["name"] for r in report["records"] if not r["pass"]]
    assert report["passed"], f"failing records: {failures}"
    assert [s["name"] for s in report["stages"]] == [
        "bisectorial", "frames", "hinf_norms", "inequalities", "convergence",
        "adjoint"]
    if expect_strict_gap:
        for payload in report["frames"].values():
            assert 0.0 < payload["T"]["cLower"] < payload["T"]["dUpper"]


def test_suite_short_circuits_for_off_sector_spectrum():
    T = cs.CliffordOperator(1, 1, np.array([[[0.0, 1.0]]]))
    report = cs.run_theorem_suite(T)
    assert not report["passed"]
    assert not report["bisector"]["certified"]
    reasons = {s["name"]: s for s in report["stages"] if s["status"] == "skipped"}
    assert set(reasons) == {"frames", "hinf_norms", "inequalities",
                            "convergence", "adjoint"}
    assert "bisectorial" in reasons["frames"]["reason"]


def test_suite_flags_injectivity_failure():
    T = cs.CliffordOperator.from_real_matrix([[0.0, 0.0], [0.0, 1.0]], n=1)
    report = cs.run_theorem_suite(T)
    assert not report["passed"]
    rec = {r["name"]: r for r in report["records"]}
    assert rec["injectivity"]["pass"] is False
    assert rec["bisectorial_certificate"]["pass"] is True


def test_suite_deterministic():
    T = cs.CliffordOperator.from_real_matrix([[2.0]], n=1)
    config = cs.SuiteConfig(contour_nodes=500, quad_nodes=100, n_sandwich=20)
    r1 = cs.run_theorem_suite(T, config=config)
    r2 = cs.run_theorem_suite(T, config=config)
    assert r1 == r2


def test_suite_parallel_frames_match_serial():
    T = cs.CliffordOperator.from_real_matrix([[2.0]], n=1)
    serial = cs.run_theorem_suite(T, config=cs.SuiteConfig(
        contour_nodes=500, quad_nodes=100, n_sandwich=20, jobs=1))
    parallel = cs.run_theorem_suite(T, config=cs.SuiteConfig(
        contour_nodes=500, quad_nodes=100, n_sandwich=20, jobs=3))
    assert serial["frames"] == parallel["frames"]
    assert serial["records"] == parallel["records"]


def test_sign_vector_builder():
    vecs = cs.sign_vectors(2)
    assert len(vecs) == 16
    assert all(v.window == (-2, -1, 0, 1) for v in vecs)
    assert all(set(np.unique(v.signs)) <= {-1.0, 1.0} for v in vecs)
    with pytest.raises(cs.ArgumentError):
        cs.SignVector((0, 1), np.array([1.0]))


def test_suite_on_clifford_multiplication_operator():
    # spectrum is the sphere [1 + S] at slice angle pi/4, so certify above it
    T = cs.CliffordOperator.scalar_mul(cs.Paravector(1.0, np.array([1.0])), 1)
    report = cs.run_theorem_suite(T, config=cs.SuiteConfig(omega=0.9, theta=1.2))
    assert report["passed"], [r["name"] for r in report["records"] if not r["pass"]]
    assert report["bisector"]["detections"] == [{"x": 1.0, "y": 1.0, "kind": "sphere"}]


def test_fab_ladder_targets_pi_sign_on_non_normal_operator():
    # spectrum {1, -2} in both halves of the sector: f_ab(T) tends to pi sgn(T),
    # and for this triangular T, h(T) = [[h(1), 0.7 (h(1) - h(-2)) / 3], [0, h(-2)]]
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.7], [0.0, -2.0]], n=1)
    report = cs.run_theorem_suite(T, config=cs.SuiteConfig(
        contour_nodes=1000, quad_nodes=100, n_sandwich=20))
    ladder = next(r for r in report["records"] if r["name"] == "truncation_ladder_monotone")
    assert ladder["pass"]

    def closed_form(h):
        return np.array([[h(1.0), 0.7 * (h(1.0) - h(-2.0)) / 3.0], [0.0, h(-2.0)]])

    sign = closed_form(np.sign)
    for k, (dev, sign_dev) in enumerate(zip(ladder["deviations"],
                                            ladder["sign_deviations"]), start=1):
        a, b = 10.0 ** -k, 10.0 ** k
        fab = closed_form(lambda x: 2.0 * (math.atan(b * x) - math.atan(a * x)))
        assert sign_dev == pytest.approx(np.linalg.norm(fab - math.pi * sign, 2), abs=1e-6)
        assert dev == pytest.approx(np.linalg.norm(fab - math.pi * np.eye(2), 2), abs=1e-6)
    assert all(b < 0.2 * a for a, b in zip(ladder["sign_deviations"],
                                           ladder["sign_deviations"][1:]))


def _full_square_kernel(g, c_theta, family, blocks, rng):
    """The square-kernel record with every kernel entry computed, row by row;
    ``rng`` is drawn as the uniform and integral records draw it first."""
    rng.uniform(-3, 3, size=(UNIFORM_PAIRS, 2))
    rng.choice([-1.0, 1.0], size=(UNIFORM_PAIRS, 2))
    rng.uniform(-2, 2, size=INTEGRAL_TAUS)
    rng.choice([-1.0, 1.0], size=INTEGRAL_TAUS)
    alpha, c_alpha = g.decay.alpha, g.decay.c_alpha
    t_grid, w_grid = family[:2]
    per_sign = t_grid.size // 2
    center = per_sign // 2
    step = w_grid[center]
    half = math.floor(3.0 * math.log(10.0) / step * (1.0 + 1e-12))
    idx = np.arange(center - half, center + half + 1, 2)
    idx = np.concatenate([idx, idx + per_sign])
    t3, fam3 = t_grid[idx], blocks[idx]
    w3 = np.full(idx.size, 2.0 * step)
    w3[[0, idx.size // 2 - 1, idx.size // 2, -1]] = step
    kernel = np.empty((idx.size, idx.size))
    for k in range(idx.size):
        kernel[k, k:] = kernel[k:, k] = spectral_norm(fam3[k] @ fam3[k:]).max(axis=-1)
    lo, hi = sorted(10.0 ** rng.uniform(-2, 2, size=2))
    hi = max(hi, 10.0 * lo)
    mid = abs(t_grid[center])
    psi = np.where((np.abs(t3) >= lo * mid) & (np.abs(t3) <= hi * mid), 1.0, 0.0)
    inner = kernel.T @ (w3 * psi)
    rhs_ii = c_theta * c_alpha * c_alpha * math.pi / (2.0 * alpha * alpha)
    lhs = float(pairwise_sum(w3 * inner ** 2))
    rhs = rhs_ii ** 2 * float(pairwise_sum(w3 * psi ** 2))
    return lhs, rhs, psi, blocks.shape[1]


@pytest.mark.parametrize("n", [2, 3])
def test_square_kernel_on_the_indicator_support_matches_the_full_kernel(n, monkeypatch):
    # seed 206 draws the widest indicator window of seeds 0 .. 299
    # (10^3.78 in |t|), seeds 5 and 8 the narrowest (one decade)
    T = non_normal_operator(np.random.default_rng(10 + n), n)
    g, engine, c_theta, fam, blocks = regularizer_family(T)
    calls = []

    def counting_norm(stack):
        calls.append(math.prod(np.shape(stack)[:-2]))
        return spectral_norm(stack)

    monkeypatch.setattr(suite, "spectral_norm", counting_norm)
    for seed in (0, 1, 5, 8, 206):
        calls.clear()
        records = _composition_bound_records("g", g, engine, c_theta, fam, blocks,
                                              np.random.default_rng(seed))
        kernel = next(r for r in records if r["name"] == "composition_square_kernel[f=g=g]")
        lhs, rhs, psi, copies = _full_square_kernel(g, c_theta, fam, blocks,
                                                    np.random.default_rng(seed))
        assert (kernel["lhs"], kernel["rhs"]) == (lhs, rhs)
        # the pairs k <= l with k or l in supp(psi), each multiplied once
        size, total = int(psi.sum()), psi.size
        pairs = size * (size + 1) // 2 + size * (total - size)
        assert sum(calls[1 + INTEGRAL_TAUS:]) == pairs * copies
        assert 0 < size < total


def test_composition_records_on_a_self_adjoint_operator_take_no_product_norms(monkeypatch):
    # in the eigenbasis every norm is a bound from the diagonals: no stack
    # of products reaches spectral_norm, in the records or anywhere in verify
    T = self_adjoint_operator(np.random.default_rng(3), 3, 2)
    g, engine, c_theta, fam, blocks = regularizer_family(T)
    calls = []

    def counting_norm(stack):
        calls.append(np.shape(stack))
        return spectral_norm(stack)

    monkeypatch.setattr(suite, "spectral_norm", counting_norm)
    records = _composition_bound_records("g", g, engine, c_theta, fam,
                                         engine.basis.diagonal(blocks),
                                         np.random.default_rng(0))
    assert [r["pass"] for r in records] == [True] * 3
    assert calls == []
    report = cs.run_theorem_suite(T, config=cs.SuiteConfig(
        contour_nodes=500, quad_nodes=100, n_sandwich=20))
    assert report["passed"] and report["contour"]["basis"]["path"] == "eigen"
    dim = T.m << T.n
    assert calls and all(shape == (dim, dim) for shape in calls)


def _dense_uniform_and_integral(g, engine, w_grid, blocks, rng):
    """lhs of the uniform and integral records from the products of the
    blocks and ``spectral_norm``, on the draws of the records."""
    def values(ts):
        return blocks_from_rho(engine.evaluate_family(g, ts)[0], engine.T.n)

    ts = 10.0 ** rng.uniform(-3, 3, size=(UNIFORM_PAIRS, 2)) * rng.choice(
        [-1.0, 1.0], size=(UNIFORM_PAIRS, 2))
    lhs_i = float(np.max(spectral_norm(values(ts[:, 0]) @ values(ts[:, 1])).max(axis=-1)))
    taus = 10.0 ** rng.uniform(-2, 2, size=INTEGRAL_TAUS) * rng.choice(
        [-1.0, 1.0], size=INTEGRAL_TAUS)
    lhs_ii = max(float(pairwise_sum(w_grid * spectral_norm(
        blocks @ values([tau])[0]).max(axis=-1))) for tau in taus)
    return lhs_i, lhs_ii


@pytest.mark.parametrize("case", ["jordan", "non-normal", "1+e1"])
def test_operators_that_are_not_self_adjoint_keep_the_dense_path(case):
    # no eigenbasis: P is the batched inverse, and the records and frame
    # errors are the dense products and norms, bit for bit
    omega, theta = (0.9, 1.2) if case == "1+e1" else (OMEGA, THETA)
    T = {"jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "non-normal": non_normal_operator(np.random.default_rng(4), 2),
         "1+e1": cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]]))}[case]
    g, engine, c_theta, fam, blocks = regularizer_family(T, omega, theta)
    assert engine.basis is None and engine._p_gap == 0.0
    r = np.exp(engine.u)
    assert np.array_equal(engine.P, q_inverse_stack(engine._bt, np.real(engine.z), r * r))
    records = _composition_bound_records("g", g, engine, c_theta, fam, blocks,
                                         np.random.default_rng(1))
    t_grid, w_grid, _, truncs, discs = fam
    want = _dense_uniform_and_integral(g, engine, w_grid, blocks, np.random.default_rng(1))
    want += _full_square_kernel(g, c_theta, fam, blocks, np.random.default_rng(1))[:1]
    assert tuple(r["lhs"] for r in records) == want
    fb = cs.frame_bounds(g, T, family=fam)
    scale = spectral_norm(blocks).max(axis=-1)
    assert fb.truncation_error == float(np.dot(w_grid, 2.0 * scale * truncs + truncs ** 2))
    assert fb.discretization_error == float(np.dot(w_grid, 2.0 * scale * discs + discs ** 2))


def test_adjoint_certificate_at_the_contour_angle_matches_all_angles():
    # rho(Q_s(T*)) = rho(Q_s(T))^T: the one-angle certificate of T* gives the
    # gates and C_phi of the seven-angle one, and so the same calculus
    phi = 0.5 * (OMEGA + THETA)
    phis = tuple(sorted(set(cs.RaySampling().resolved_phis(OMEGA)) | {THETA, phi}))
    cfg = cs.ContourConfig(nodes=500)
    fs = [ensure_bounded(cs.resolve_function(spec, THETA)) for spec in cs.default_f_specs()]
    jordan = cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1)
    for T in (non_normal_operator(np.random.default_rng(1), 3), jordan):
        t_star = T.adjoint()
        full = cs.check_bisectorial(t_star, OMEGA, cs.RaySampling(phis=phis))
        one = cs.check_bisectorial(t_star, OMEGA, cs.RaySampling(phis=(phi,)))
        assert len(full.c_phi_table) == 7 and len(one.c_phi_table) == 1
        assert (one.certified, one.injective) == (full.certified, full.injective) == (True, True)
        assert one.c_at(phi) == full.c_at(phi)
        engines = [cs.ContourEngine(t_star, rep, THETA, cfg) for rep in (full, one)]
        for f in fs:
            a, b = (cs.hinf_calculus(f, t_star, rep, cfg, engine=eng)
                    for rep, eng in zip((full, one), engines))
            assert np.array_equal(a.op.coeffs, b.op.coeffs)
            assert (a.truncation_error, a.discretization_error) == (
                b.truncation_error, b.discretization_error)
