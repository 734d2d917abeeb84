import math

import numpy as np
import pytest

import cliffspec as cs


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
