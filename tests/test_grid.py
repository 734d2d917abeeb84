"""The frame grid's a-priori terms: the trapezoid rule in log|t| on its
analyticity strip, the window tails, the grid they pick, and the claims
they join."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec import calculus
from cliffspec.cli import main
from cliffspec.module import block_products, spectral_norm
from cliffspec.quadratic import GridBound, _grid_engine
from cliffspec.suite import _certified, _product_norms

from conftest import OMEGA, THETA, contour_report, self_adjoint_operator

DIAG = [[1.0, 0.0], [0.0, -2.0]]


def _operator(case):
    return {"diag": cs.CliffordOperator.from_real_matrix(DIAG, n=1),
            "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
            "verify-d32": self_adjoint_operator(np.random.default_rng(0), 3, 4),
            "1+e1": cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]]))}[case]


# the contour of each run at the parent of the grid rule, which took every
# node of the 400-step grid: the grid rule leaves it as it was, bit for bit
@pytest.mark.parametrize("case, angles, q, contour", [
    ("diag", [], 2, {"nodes": 1045, "u_max": "0x1.e18f3dacc6598p+4", "stride": 2}),
    ("verify-d32", [], 2, {"nodes": 1045, "u_max": "0x1.e18f3dacc6598p+4", "stride": 2}),
    ("jordan", [], 1, {"nodes": 1045, "u_max": "0x1.e18f3dacc6598p+4", "stride": 1}),
    ("1+e1", ["--omega", "0.9", "--theta", "1.2"], 1,
     {"nodes": 2087, "u_max": "0x1.e0a374c9ca150p+4", "stride": 2}),
], ids=["diag", "verify-d32", "jordan", "1+e1"])
def test_the_grid_takes_every_qth_node_the_strip_allows(tmp_path, case, angles, q, contour):
    # every second |t| for the eigen-path operators at the default angles
    # (b = 0.507), all of them in the narrow strip b = 0.29 of 1 + e1 and for
    # the Jordan block, whose dense-path M (about 3e3) misses the target
    T = _operator(case)
    op = tmp_path / "op.json"
    op.write_text(json.dumps(cs.operator_to_dict(T)))
    for command in ("verify", "frame"):
        out = tmp_path / f"{command}.json"
        args = ["--g", str(tmp_path / "g.json")] if command == "frame" else []
        (tmp_path / "g.json").write_text(json.dumps({"name": "regularizer"}))
        assert main([command, "--operator", str(op), "--out", str(out)] + args + angles) == 0
        report = json.loads(out.read_text())
        echo = report["contour"]
        assert {"nodes": echo["nodes"], "u_max": float.hex(echo["u_max"]),
                "stride": echo["stride"]} == contour
        nodes = report["grid"]["nodes"] if command == "frame" else echo["grid_nodes"]
        assert nodes == cs.QuadGridConfig.nodes // q
    assert report["grid"]["t_min"] == cs.default_quad_grid(T).t_min
    assert 0.0 < report["T"]["errorEstimates"]["gridRule"] <= calculus.RULE_TARGET or q == 1
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["report_version"] == 7
    assert verify["contour"]["grid_rule_error"] == max(
        frames["T"]["errorEstimates"]["gridRule"] for frames in verify["frames"].values())

    # the next coarser grid of the 400 steps misses the target for some g
    omega, theta = (0.9, 1.2) if case == "1+e1" else (OMEGA, THETA)
    gs = [_certified("g", spec, theta) for spec in cs.default_g_specs()]
    rep = contour_report(T, omega, theta, phis=())
    t, _, engine, _ = _grid_engine(T, rep, theta, gs)
    assert t.size == 2 * (400 // q + 1)
    bounds = [GridBound(g, engine) for g in gs]
    coarser = next(k for k in (2, 4, 5, 8) if k > q)
    assert max(b.rule(coarser * cs.default_quad_grid(T).step) for b in bounds) > (
        calculus.RULE_TARGET)


def test_a_coarser_grid_never_coarsens_the_contour():
    # --nodes 500 asks for a contour step of 0.120: the lattice contour of
    # the 400-step grid steps 0.058, and the grid of every second node
    # takes it at stride 2, where that grid's own lattice contour would
    # step 0.115; the contour is the parent's, bit for bit
    T = _operator("diag")
    rep = contour_report(T, phis=())
    g = cs.regularizer(THETA)
    cfg = cs.ContourConfig(nodes=500)
    t, _, engine, stride = _grid_engine(T, rep, THETA, [g], cfg=cfg)
    assert t.size == 402 and stride == 2 and engine.cfg.nodes == 1045
    assert float.hex(engine.cfg.u_max) == "0x1.e18f3dacc6598p+4"
    grid = cs.default_quad_grid(T)
    own, _ = cs.lattice_contour(cs.QuadGridConfig(grid.t_min, grid.t_max, 200), cfg)
    assert own.nodes < engine.cfg.nodes


def test_a_wide_strip_takes_every_fourth_node_on_the_same_contour(tmp_path):
    # at omega 0.1, theta 1.4 (b = 1.26) the grid of 100 steps meets the
    # target for every g, on the 1,045-node contour of the 400-step grid
    # at stride 4; the next coarser divisor, q = 5, misses it
    omega, theta, angles = 0.1, 1.4, ["--omega", "0.1", "--theta", "1.4"]
    T = _operator("diag")
    op, g = tmp_path / "op.json", tmp_path / "g.json"
    op.write_text(json.dumps(cs.operator_to_dict(T)))
    g.write_text(json.dumps({"name": "regularizer"}))
    for command, args in (("verify", []), ("frame", ["--g", str(g)])):
        out = tmp_path / f"{command}.json"
        assert main([command, "--operator", str(op), "--out", str(out)] + args + angles) == 0
        report = json.loads(out.read_text())
        echo = report["contour"]
        assert {"nodes": echo["nodes"], "u_max": float.hex(echo["u_max"]),
                "stride": echo["stride"]} == {
            "nodes": 1045, "u_max": "0x1.e18f3dacc6598p+4", "stride": 4}
        nodes = report["grid"]["nodes"] if command == "frame" else echo["grid_nodes"]
        assert nodes == 100

    gs = [_certified("g", spec, theta) for spec in cs.default_g_specs()]
    rep = contour_report(T, omega, theta, phis=())
    t, w, engine, stride = _grid_engine(T, rep, theta, gs)
    assert t.size == 2 * 101 and stride == 4
    bounds = [GridBound(g, engine) for g in gs]
    assert max(b.rule(w[1]) for b in bounds) <= calculus.RULE_TARGET
    assert max(b.rule(5 * cs.default_quad_grid(T).step) for b in bounds) > calculus.RULE_TARGET

    # the regularizer's frame covers the exact constant 1 within its claim
    fb = cs.frame_bounds(cs.regularizer(theta), T, report=rep)
    claim = fb.combined_error
    assert np.abs(fb.eigenvalues - 1.0).max() <= claim
    assert abs(fb.c_lower - 1.0) <= claim and abs(fb.d_upper - 1.0) <= claim


def test_a_g_without_decay_is_refused_as_the_calculus_refuses_it():
    # the grid bound reads C_alpha; a g with none gets the calculus's error
    T = _operator("diag")
    rep = contour_report(T, phis=())
    g = cs.rational_function([1, 0], [1, 0, 1])
    v = cs.ModuleVector(1, 2, np.ones((2, 2)))
    for call in (lambda: cs.frame_bounds(g, T, report=rep),
                 lambda: cs.frame_operator(g, T, report=rep),
                 lambda: cs.quadratic_norm(g, T, v, report=rep)):
        with pytest.raises(cs.PreconditionError, match="requires a decay certificate"):
            call()


def test_a_report_without_c_at_the_strip_edge_is_refused_as_before(recwarn):
    # the dense path's grid bound reads C at phi - a; a report sampled above
    # it makes M inf and no warning, and the engine refuses the report
    T = _operator("jordan")
    rep = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=(0.6,)))
    with pytest.raises(cs.PreconditionError, match="certify at phi - a and phi"):
        cs.frame_bounds(cs.regularizer(THETA), T, report=rep)
    assert not recwarn.list


def test_the_frame_of_a_singular_non_normal_operator_is_refused(tmp_path, capsys):
    # [[1, 1], [0, 0]]: with sigma_min = 0 no series bounds g(tT) beyond the
    # window, so its tails are inf and the frame is refused, where it gave
    # c_lower 0 with a claim of 60 and exited 0
    op, g = tmp_path / "op.json", tmp_path / "g.json"
    op.write_text(json.dumps(cs.operator_to_dict(
        cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 0.0]], n=1))))
    g.write_text(json.dumps({"name": "regularizer"}))
    assert main(["frame", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the claimed error is not finite (truncation ")


def test_the_regularizer_frame_on_diag_covers_its_exact_constant():
    # the integral of |g(t lam)|^2 dt/|t| over t != 0 is 1 for every real
    # lam != 0; the window [1e-5, 1e5] / ||T|| misses 4.25e-10 of it at lam = 1
    # and 2.0e-10 at lam = -2, which the window tails now claim
    T = _operator("diag")
    fb = cs.frame_bounds(cs.regularizer(THETA), T, report=contour_report(T, phis=()))
    claim = fb.combined_error
    assert np.abs(fb.eigenvalues - 1.0).max() <= claim
    assert abs(fb.c_lower - 1.0) <= claim and abs(fb.d_upper - 1.0) <= claim
    assert 4.25e-10 <= fb.window_tail_error <= 2e-9
    assert 0.0 < fb.grid_rule_error <= calculus.RULE_TARGET
    assert fb.discretization_error >= fb.grid_rule_error + fb.window_tail_error


@st.composite
def operators(draw):
    """Self-adjoint (the eigen path) or upper-triangular (the dense path)
    m x m over R_n with D = m 2^n <= 8; the triangular ones with diagonal
    entries of modulus 0.5 to 2, of slice angle at most atan 0.2, inside the
    sector of OMEGA, and a random strictly upper part."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2), (1, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return self_adjoint_operator(rng, n, m)
    coeffs = np.zeros((m, m, 1 << n))
    for i in range(m):
        x = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        coeffs[i, i, 0] = x
        coeffs[i, i, 1:n + 1] = abs(x) * 0.2 * rng.uniform(-1.0, 1.0, n) / math.sqrt(n)
    coeffs += np.triu(np.ones((m, m)), 1)[:, :, None] * draw(st.floats(0.1, 2.0)) * (
        rng.standard_normal(coeffs.shape))
    return cs.CliffordOperator(n, m, coeffs)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(operators(), st.sampled_from(range(len(cs.default_g_specs()))))
def test_each_frame_claim_covers_the_gap_to_a_four_times_finer_grid(T, which):
    # the frame of a run's grid against the frame on four times its nodes
    # over the same window, whose every fourth node is a node of the run's,
    # on the finest lattice contour of that finer grid
    g = _certified("g", cs.default_g_specs()[which], THETA)
    rep = contour_report(T, phis=())
    t, w, engine, _ = _grid_engine(T, rep, THETA, [g])
    fb = cs.family_frames(g, engine, t, w)[0]
    qcfg = cs.default_quad_grid(T)
    fine = cs.QuadGridConfig(qcfg.t_min, qcfg.t_max, 4 * (t.size // 2 - 1))
    t_fine, w_fine = fine.grid()
    assert np.array_equal(t_fine.reshape(2, -1)[:, ::4], t.reshape(2, -1))
    cfg, _ = cs.lattice_contour(fine)
    ref = cs.family_frames(g, cs.ContourEngine(T, rep, THETA, cfg), t_fine, w_fine)[0]
    assert np.abs(fb.eigenvalues - ref.eigenvalues).max() <= fb.combined_error


def test_grid_bound_of_the_dense_path_decays_beyond_the_window():
    # the dense-path tails fall with the window: widening it by 10^4 on each
    # side cuts them by at least 10^3, and M does not depend on the window
    T = _operator("jordan")
    rep = contour_report(T, phis=())
    bound = GridBound(cs.regularizer(THETA), cs.ContourEngine(T, rep, THETA))
    assert bound.lam is None and math.isfinite(bound.m)
    h = cs.default_quad_grid(T).step
    near, far = (bound.tails(1e-5 / k, 1e5 * k, h) for k in (1.0, 1e4))
    assert 0.0 < far <= 1e-3 * near < math.inf


def test_f_ab_calc_takes_its_rule_bound_from_the_inner_function(tmp_path):
    # by Fubini, M of f_ab is 2 log(b / a) times the regularizer's, not the
    # C_alpha 2 k of its decay certificate (5.7e200 at a = 1e-200, b = 1e200):
    # its claim is finite and the contour takes fewer than the finest nodes
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    T = cs.CliffordOperator.from_real_matrix(DIAG, n=1)
    op.write_text(json.dumps(cs.operator_to_dict(T)))
    spec = {"name": "f_ab", "params": {"a": 1e-200, "b": 1e200, "inner": {"name": "regularizer"}}}
    fn.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    assert main(["calc", "--operator", str(op), "--function", str(fn), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["disc_err"] <= 1e-9
    got = cs.rho_matrix(cs.operator_from_dict(result))
    lam = np.repeat([1.0, -2.0], 2)     # rho of diag(1, -2) over R_1
    want = np.diag(2.0 * (np.arctan(1e200 * lam) - np.arctan(1e-200 * lam)))
    assert np.linalg.norm(got - want, 2) <= result["trunc_err"] + result["disc_err"]
    f = cs.resolve_function(spec, THETA)
    assert calculus.rule_contour(f, contour_report(T, phis=())).nodes < 2001


@pytest.mark.parametrize("km, scale", [(1, 1.0), (2, 1.0), (2, 1e-170), (2, 1e150)])
def test_dense_product_norms_from_the_entry_table_match_the_products(km, scale):
    # the composition records' norms of B_k B_l from one table per family
    # are the floats of block_products and spectral_norm, at the scales
    # where lambda_max underflows or overflows too
    rng = np.random.default_rng(km)
    blocks = scale * (rng.standard_normal((40, 3, km, km))
                      + 1j * rng.standard_normal((40, 3, km, km)))
    ks, ls = rng.integers(0, 40, 100), rng.integers(0, 40, 100)
    norms = _product_norms(blocks, 7)(ks, ls)
    want = spectral_norm(block_products(blocks[ks], blocks[ls])).max(axis=-1)
    assert np.array_equal(norms, want)


def test_closed_form_norm_of_one_matrix_keeps_its_shape_and_scale():
    # one 2 x 2 matrix, as the adjoint records take it: a 0-d norm, scaled
    # exactly where its lambda_max underflows
    got = spectral_norm(np.array([[1e-300, 0.0], [0.0, 0.0]]))
    assert got.shape == () and got == 1e-300
