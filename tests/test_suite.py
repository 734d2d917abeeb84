import math
import tracemalloc

import numpy as np
import pytest

import cliffspec as cs
from cliffspec import suite
from cliffspec.functions import ensure_bounded
from cliffspec.module import (
    Diagonal,
    block_products,
    blocks_from_rho,
    coeffs_from_blocks,
    rho_stack,
    spectral_norm,
)
from cliffspec.quadrature import pairwise_sum
from cliffspec.spectrum import q_inverse_stack
from cliffspec.suite import INTEGRAL_TAUS, _composition_bound_records

from conftest import (
    OMEGA,
    THETA,
    composition_nodes,
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
    t_grid, w_grid = family[:2]
    composition_nodes(rng, t_grid)
    alpha, c_alpha = g.decay.alpha, g.decay.c_alpha
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
        kernel[k, k:] = kernel[k:, k] = spectral_norm(
            block_products(fam3[k], fam3[k:])).max(axis=-1)
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
        records = _composition_bound_records("g", g, c_theta, *fam[:2], blocks,
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
    g, engine, c_theta, fam, values = regularizer_family(T)
    calls = []

    def counting_norm(stack):
        calls.append(np.shape(stack))
        return spectral_norm(stack)

    monkeypatch.setattr(suite, "spectral_norm", counting_norm)
    records = _composition_bound_records("g", g, c_theta, *fam[:2], values,
                                         np.random.default_rng(0))
    assert [r["pass"] for r in records] == [True] * 3
    assert calls == []
    report = cs.run_theorem_suite(T, config=cs.SuiteConfig(
        contour_nodes=500, quad_nodes=100, n_sandwich=20))
    assert report["passed"] and report["contour"]["basis"]["path"] == "eigen"
    dim = T.m << T.n
    assert calls and all(shape == (dim, dim) for shape in calls)


def test_composition_records_on_a_self_adjoint_operator_index_no_diagonal(monkeypatch):
    # the records read one magnitude table of the family: no Diagonal of
    # the factors of a pair is formed
    T = self_adjoint_operator(np.random.default_rng(3), 3, 2)
    g, engine, c_theta, fam, values = regularizer_family(T)
    calls = []

    def counting_getitem(self, index):
        calls.append(index)
        return Diagonal(self.d[index], self.e[index])

    monkeypatch.setattr(Diagonal, "__getitem__", counting_getitem, raising=False)
    records = _composition_bound_records("g", g, c_theta, *fam[:2], values,
                                         np.random.default_rng(0))
    assert [r["pass"] for r in records] == [True] * 3
    assert calls == []


def _dense_uniform_and_integral(t_grid, w_grid, blocks, rng):
    """lhs of the uniform and integral records from the products of the
    blocks (``block_products``) and ``spectral_norm``, at the nodes the
    records draw."""
    pairs, taus = composition_nodes(rng, t_grid)
    lhs_i = float(np.max(spectral_norm(
        block_products(blocks[pairs[:, 0]], blocks[pairs[:, 1]])).max(axis=-1)))
    lhs_ii = max(float(pairwise_sum(
        w_grid * spectral_norm(block_products(blocks, blocks[k])).max(axis=-1))) for k in taus)
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
    assert engine.basis is None
    r = np.exp(engine.u)
    assert np.array_equal(engine.P, q_inverse_stack(engine._bt, np.real(engine.z), r * r))
    records = _composition_bound_records("g", g, c_theta, *fam[:2], blocks,
                                         np.random.default_rng(1))
    t_grid, w_grid, _, truncs, discs = fam
    want = _dense_uniform_and_integral(t_grid, w_grid, blocks, np.random.default_rng(1))
    want += _full_square_kernel(g, c_theta, fam, blocks, np.random.default_rng(1))[:1]
    assert tuple(r["lhs"] for r in records) == want
    # the products match matmul entrywise within 2 eps |a| |b|; 1 x 1 blocks
    # differ from it in the last bit
    a, b = blocks[:, None], blocks[composition_nodes(np.random.default_rng(1), t_grid)[1]]
    gap = np.abs(block_products(a, b) - a @ b)
    assert np.all(gap <= 2.0 * np.finfo(float).eps * (np.abs(a) @ np.abs(b)))
    mats = rho_stack(coeffs_from_blocks(blocks, T.n), T.n)
    fb = cs.frame_bounds(g, T, family=(t_grid, w_grid, mats, truncs, discs))
    scale = spectral_norm(blocks_from_rho(mats, T.n)).max(axis=-1)
    assert fb.truncation_error == float(np.dot(w_grid, 2.0 * scale * truncs + truncs ** 2))
    assert fb.discretization_error == float(np.dot(w_grid, 2.0 * scale * discs + discs ** 2))


def test_adjoint_certificate_at_the_contour_angle_matches_all_angles():
    # rho(Q_s(T*)) = rho(Q_s(T))^T: the certificate of T* at the contour's
    # two angles gives the gates and C of the eight-angle one, and so the
    # same calculus
    lower, phi = cs.ContourConfig().contour_angles(OMEGA, THETA)
    phis = tuple(sorted(set(cs.RaySampling().resolved_phis(OMEGA)) | {THETA, lower, phi}))
    cfg = cs.ContourConfig(nodes=500)
    fs = [ensure_bounded(cs.resolve_function(spec, THETA)) for spec in cs.default_f_specs()]
    jordan = cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1)
    for T in (non_normal_operator(np.random.default_rng(1), 3), jordan):
        t_star = T.adjoint()
        full = cs.check_bisectorial(t_star, OMEGA, cs.RaySampling(phis=phis))
        one = cs.check_bisectorial(t_star, OMEGA, cs.RaySampling(phis=(lower, phi)))
        assert len(full.c_phi_table) == 8 and len(one.c_phi_table) == 2
        assert (one.certified, one.injective) == (full.certified, full.injective) == (True, True)
        assert (one.c_at(lower), one.c_at(phi)) == (full.c_at(lower), full.c_at(phi))
        engines = [cs.ContourEngine(t_star, rep, THETA, cfg) for rep in (full, one)]
        for f in fs:
            a, b = (cs.hinf_calculus(f, t_star, rep, cfg, engine=eng)
                    for rep, eng in zip((full, one), engines))
            assert np.array_equal(a.op.coeffs, b.op.coeffs)
            assert (a.truncation_error, a.discretization_error) == (
                b.truncation_error, b.discretization_error)


def _verify_d32_operator():
    """The operator of the verify-d32 benchmark: A + A* over R_3, m = 4, from
    the generator of seed 0."""
    return self_adjoint_operator(np.random.default_rng(0), 3, 4)


def _triangular_operator(n, m):
    """Scalar diagonal +-(1 + i / m) plus small strictly upper Clifford
    entries: bisectorial, not self-adjoint, so its families stay dense."""
    rng = np.random.default_rng(2)
    coeffs = np.zeros((m, m, 1 << n))
    coeffs[np.arange(m), np.arange(m), 0] = (1.0 + np.arange(m) / m) * (-1.0) ** np.arange(m)
    coeffs += np.triu(np.ones((m, m)), 1)[:, :, None] * 0.3 / m * rng.standard_normal(
        coeffs.shape)
    return cs.CliffordOperator(n, m, coeffs)


@pytest.mark.parametrize("case", ["diag", "jordan", "verify-d32"])
def test_verify_keeps_the_families_on_the_blocks(case, monkeypatch):
    # no family value is mapped to rho, and none back: each matrix a verify
    # builds in rho is one value (T, f(T), a frame Gram), and the records
    # that apply the family to vectors read the frame Gram
    T = {"diag": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
         "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "verify-d32": _verify_d32_operator()}[case]
    to_rho, from_rho = [], []

    def counting_rho_stack(coeffs, n):
        to_rho.append(math.prod(np.shape(coeffs)[:-3]))
        return rho_stack(coeffs, n)

    def counting_blocks_from_rho(stack, n):
        from_rho.append(np.shape(stack))
        return blocks_from_rho(stack, n)

    for module in (cs.module, cs.calculus, cs.quadratic, suite):
        for name, fn in (("rho_stack", counting_rho_stack),
                         ("blocks_from_rho", counting_blocks_from_rho)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    assert cs.run_theorem_suite(T)["passed"]
    assert to_rho and set(to_rho) == {1}
    assert from_rho == []


@pytest.mark.parametrize("case", ["diag", "jordan", "verify-d32"])
def test_verify_evaluates_one_lattice_family_per_g(case, monkeypatch):
    # the frames of T and T* and all three composition records read the one
    # family of each g on the lattice of the grid: no other stack of values
    # is evaluated, and each takes one sequence of 2 (400 p + n) = 2,890
    # profile points, p = 1 and n = 1,045: the stride whose rule error meets
    # 1e-10 on these three operators at the defaults
    T = {"diag": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
         "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "verify-d32": _verify_d32_operator()}[case]
    calls, points = [], [0]
    evaluate, eval_complex = cs.ContourEngine.evaluate_blocks, cs.IntrinsicFunction.eval_complex

    def counting(self, z):
        points[0] += np.size(z)
        return eval_complex(self, z)

    def evaluate_blocks(self, f, ts):
        before = points[0]
        out = evaluate(self, f, ts)
        calls.append((np.size(ts), points[0] - before))
        return out

    monkeypatch.setattr(cs.IntrinsicFunction, "eval_complex", counting)
    monkeypatch.setattr(cs.ContourEngine, "evaluate_blocks", evaluate_blocks)
    assert cs.run_theorem_suite(T)["passed"]
    families = [count for size, count in calls if size > 1]
    assert families == [2890] * len(cs.default_g_specs())


def test_adjoint_side_records_of_an_even_square_are_vacuous():
    # g^2 is even for the regularizer and its square, so the parameter
    # integral of g^2, and with it the lhs, is 0: marked, and still a pass;
    # the mixed-parity rational's integral is not 0
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    report = cs.run_theorem_suite(T)
    names = report["g_registry"]
    records = {r["name"]: r for r in report["records"]}
    side = [records[f"adjoint_side_lower_bound[g={name}]"] for name in names]
    assert [r.get("vacuous", False) for r in side] == [True, True, False]
    assert [r["lhs"] for r in side[:2]] == [0.0, 0.0] and side[2]["g2_integral"] != 0.0
    assert all(r["pass"] for r in side) and report["passed"]


def _weighted_norms2(w, mats, xs):
    """sum_k w_k ||M_k x||^2 for each row x of ``xs``, over the D x D family M_k."""
    applied = np.einsum("kij,vj->kvi", mats, xs)
    return pairwise_sum(w[:, None] * np.einsum("kvi,kvi->kv", applied, applied))


@pytest.mark.parametrize("case", ["diag", "jordan", "1+e1", "verify-d32"])
def test_quadratic_forms_of_the_frame_gram_match_the_family(case):
    # x^T Theta x against sum_k w_k ||rho(g(t_k T)) x||^2 over the D x D
    # family, for the sandwich vectors and the sup-norm domination rows
    omega, theta = (0.9, 1.2) if case == "1+e1" else (OMEGA, THETA)
    T = {"diag": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
         "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "1+e1": cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]])),
         "verify-d32": _verify_d32_operator()}[case]
    g, engine, _, (t_grid, w_grid, blocks, truncs, discs), _ = regularizer_family(
        T, omega, theta)
    mats = rho_stack(coeffs_from_blocks(blocks, T.n), T.n)
    fb = cs.frame_bounds(g, T, family=(t_grid, w_grid, mats, truncs, discs))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, T.m << T.n))
    hinf = cs.hinf_calculus(g, T, cs.check_bisectorial(T, omega), engine.cfg, engine=engine)
    xs = np.concatenate([x, x @ cs.rho_matrix(hinf.op).T])
    got = suite._frame_norms2(fb, xs)
    want = _weighted_norms2(w_grid, mats, xs)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_dyadic_record_of_an_operator_self_adjoint_only_to_rounding_is_one_sided():
    # A + A* with 1e-14 noise is not T*: verify takes the dense path, and the
    # dyadic record takes the largest hinf norm ratio, one sided, not c = 1
    rng = np.random.default_rng(2)
    sym = self_adjoint_operator(rng, 1, 2)
    T = cs.CliffordOperator(1, 2, sym.coeffs + 1e-14 * rng.standard_normal(sym.coeffs.shape))
    report = cs.run_theorem_suite(T)
    assert report["passed"] and report["contour"]["basis"]["path"] == "dense"
    records = [r for r in report["records"]
               if r["name"].startswith("dyadic_splitting_upper")]
    assert len(records) == len(cs.default_g_specs())
    assert all(r["one_sided"] and r["c_used"] < 1.0 for r in records)


def test_verify_takes_each_frame_family_to_the_eigenbasis_once(monkeypatch):
    # the engine returns each frame family as its Diagonal, which gives the
    # composition records and the frames of T and of T*: no stack of grid
    # values is assembled as blocks, and each g assembles one frame Gram
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    grid_size = 2 * (cs.SuiteConfig().quad_nodes | 1)
    families, assembled = [], []
    evaluate, blocks = cs.ContourEngine.evaluate_blocks, cs.module.EigenBasis.blocks

    def evaluate_blocks(self, f, ts):
        out = evaluate(self, f, ts)
        if np.size(ts) == grid_size:
            families.append(out[0])
        return out

    def counting_blocks(self, d):
        assembled.append(np.shape(d))
        return blocks(self, d)

    monkeypatch.setattr(cs.ContourEngine, "evaluate_blocks", evaluate_blocks)
    monkeypatch.setattr(cs.module.EigenBasis, "blocks", counting_blocks)
    report = cs.run_theorem_suite(T)
    assert report["passed"] and report["contour"]["basis"]["path"] == "eigen"
    assert len(families) == len(cs.default_g_specs())
    assert all(isinstance(fam, cs.module.Diagonal) for fam in families)
    assert report["contour"]["basis"]["residual"] == max(float(f.e.max()) for f in families)
    assert all(shape[0] != grid_size for shape in assembled)
    assert sum(len(shape) == 2 for shape in assembled) == len(families)


@pytest.mark.parametrize("case", ["self-adjoint", "triangular"])
def test_frame_memory_estimate_bounds_the_frame_stage(case, monkeypatch):
    # the traced peak between the first frame family and the first hinf
    # solve, above what was allocated before it (the engine and certificate)
    T = {"self-adjoint": self_adjoint_operator(np.random.default_rng(0), 3, 8),
         "triangular": _triangular_operator(3, 8)}[case]
    config = cs.SuiteConfig()
    state = {}
    evaluate = cs.ContourEngine.evaluate_blocks

    class FramesDone(Exception):
        pass

    def evaluate_blocks(self, f, ts):
        if "base" not in state:
            state["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return evaluate(self, f, ts)

    def stop(*args, **kwargs):
        state["peak"] = tracemalloc.get_traced_memory()[1]
        raise FramesDone

    monkeypatch.setattr(cs.ContourEngine, "evaluate_blocks", evaluate_blocks)
    monkeypatch.setattr(suite, "hinf_operators", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FramesDone):
            cs.run_theorem_suite(T, config=config)
    finally:
        tracemalloc.stop()
    # the estimate is at least the peak iff a cap just below the peak refuses
    monkeypatch.setattr(cs.quadratic, "_MAX_ENGINE_BYTES", state["peak"] - state["base"] - 1)
    with pytest.raises(cs.ArgumentError, match="frame stage at D = 64"):
        cs.quadratic.check_frame_memory(T, config.quad_nodes, len(cs.default_g_specs()),
                                        config.contour_nodes)


def test_frame_ratio_bound_refuses_a_zero_frame_lower_bound():
    # the bound divides by c_lower cos(theta); c_lower = 0 is refused
    fb = cs.FrameBounds(c_lower=0.0, d_upper=1.0, theta=np.eye(2), eigenvalues=np.zeros(2),
                        truncation_error=0.0, discretization_error=0.0)
    f = ensure_bounded(cs.regularizer(THETA))
    with pytest.raises(cs.NumericalFailureError, match=r"g=regularizer is c_lower=0\.0"):
        suite._frame_ratio_bound("regularizer", "regularizer", f, 1.0, None, fb, 1.0, THETA)


def test_a_product_with_an_uncertified_factor_takes_its_sampled_sup_norm():
    # |5 / (1 + s^2)| reaches 5 as s -> 0; the product with the constant 1 had
    # the sup norm 1 of that constant, below its own hinf norm of 2.5 on
    # diag(1, -2), and a frame ratio bound and a truncation claim 5 times too small
    one = {"name": "rational", "params": {"num": [1.0], "den": [1.0], "bounded": True}}
    prod = {"name": "product", "params": {"factors": [
        one, {"name": "rational", "params": {"num": [5.0], "den": [1.0, 0.0, 1.0]}}]}}
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    report = cs.run_theorem_suite(T, [{"name": "regularizer"}], [one, prod])
    norm_one, norm_prod = (report["hinf_norms"][suite.spec_name(s)] for s in (one, prod))
    assert norm_prod["norm"] == pytest.approx(2.5)
    assert norm_prod["truncation_error"] == pytest.approx(5.0 * norm_one["truncation_error"])
    rhs_one, rhs_prod = (r["rhs"] for r in report["records"]
                         if r["name"].startswith("frame_ratio_norm_bound"))
    assert rhs_prod == pytest.approx(5.0 * rhs_one)


def test_a_non_finite_claim_is_refused():
    # an infinite tolerance or bound would pass any lhs
    with pytest.raises(cs.NumericalFailureError, match="truncation inf"):
        cs.CalculusResult(cs.CliffordOperator.zero(1, 1), math.inf, 0.0)
    with pytest.raises(cs.NumericalFailureError, match="record r claims a bound that is not finite"):
        suite._record("r", 0.0, 1.0, tol=math.inf)


def test_records_whose_constant_divides_by_zero_are_refused():
    # 2 alpha^2 underflows to 0 at alpha = 1e-163, 1 - 2^-beta rounds to 0
    # at beta = 1e-17, and an f of sup norm 0 divides the hinf norm ratio
    # of a non-self-adjoint T by 0: each bound is inf, which its record
    # refuses; an f(T) = 0 makes that ratio 0, no estimate of the constant
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    g, _, c_theta, fam, blocks = regularizer_family(T)
    tiny = g.with_decay(cs.DecayCertificate(1e-163, 1.0))
    with pytest.raises(cs.NumericalFailureError, match="composition_integral_bound"):
        _composition_bound_records("g", tiny, c_theta, *fam[:2], blocks,
                                   np.random.default_rng(0))
    frame = cs.FrameBounds(0.5, 1.0, np.eye(4), np.ones(4), 0.0, 0.0)
    flat = g.with_decay(cs.DecayCertificate(1e-17, 1.0))
    with pytest.raises(cs.NumericalFailureError, match="dyadic_splitting_upper"):
        suite._dyadic_splitting_upper("g", flat, True, frame, {})
    zero = cs.rational_function([0.0], [1.0]).with_bounded(cs.BoundedCertificate(0.0))
    with pytest.raises(cs.NumericalFailureError, match="dyadic_splitting_upper"):
        suite._dyadic_splitting_upper("g", g, False, frame, {"zero": (zero, None, 0.0)})
    vanishing = cs.rational_function([0.0], [1.0]).with_bounded(cs.BoundedCertificate(1.0))
    with pytest.raises(cs.NumericalFailureError,
                       match=r"dyadic_splitting_upper\[g=g\] takes c = 0"):
        suite._dyadic_splitting_upper("g", g, False, frame, {"vanishing": (vanishing, None, 0.0)})


@pytest.mark.parametrize("case", ["diag", "1+e1"])
def test_verify_forms_the_operator_level_work_once_per_operator(case, monkeypatch):
    # one e(T) per operator, and for T* = T bit for bit (diag(1, -2)) no
    # certificate, engine or hinf value of its own; T* != T (1 + e1) has all
    # three, certified at the contour's angles alone
    T, config = {
        "diag": (cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
                 cs.SuiteConfig()),
        "1+e1": (cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]])),
                 cs.SuiteConfig(omega=0.9, theta=1.2)),
    }[case]
    operators = 1 if np.array_equal(T.adjoint().coeffs, T.coeffs) else 2
    assert operators == {"diag": 1, "1+e1": 2}[case]
    certificates, engines, regularized = [], [], []
    certify, build, rational = (cs.check_bisectorial, cs.ContourEngine.__init__,
                                cs.calculus.rational_calculus)

    def counting_certify(T, omega, sampling=cs.RaySampling()):
        certificates.append(sampling.resolved_phis(omega))
        return certify(T, omega, sampling)

    def counting_build(self, *args):
        build(self, *args)
        engines.append(self)

    def counting_rational(f, T):
        regularized.append(T)
        return rational(f, T)

    monkeypatch.setattr(suite, "check_bisectorial", counting_certify)
    monkeypatch.setattr(cs.ContourEngine, "__init__", counting_build)
    monkeypatch.setattr(cs.calculus, "rational_calculus", counting_rational)
    report = cs.run_theorem_suite(T, config=config)
    assert [s["status"] for s in report["stages"]] == ["done"] * 6
    assert len(certificates) == len(engines) == len(regularized) == operators
    if operators == 2:
        assert certificates[1] == (engines[1].phi - engines[1].strip, engines[1].phi)
        assert np.array_equal(regularized[1].coeffs, T.adjoint().coeffs)


def test_a_non_finite_profile_in_a_batch_names_u_t_and_its_f():
    # the batch refuses the value at its node u and t, and the suite names
    # the stage and the f that fails on its own
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    report = cs.check_bisectorial(T, OMEGA)
    engine = cs.ContourEngine(T, report, THETA, cs.ContourConfig(nodes=64))

    def profile(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) > 5.0, np.nan, 1.0 / (1.0 + z * z))

    good = ensure_bounded(cs.regularizer(THETA))
    bad = cs.IntrinsicFunction(profile, THETA, bounded=cs.BoundedCertificate(1.0))
    with pytest.raises(cs.NumericalFailureError, match="non-finite function value") as err:
        cs.calculus.hinf_operators([good, bad], T, report, engine=engine)
    assert err.value.node["t"] == 1.0 and math.exp(err.value.node["u"]) > 5.0
    with pytest.raises(cs.NumericalFailureError,
                       match=r"^hinf_norms stage, f=bad: non-finite function value") as err:
        suite._hinf_stage("hinf_norms", [("f=good", good), ("f=bad", bad)],
                          T, report, None, engine)
    assert err.value.node["t"] == 1.0 and math.exp(err.value.node["u"]) > 5.0


@pytest.mark.parametrize("case", ["jordan", "1+e1"])
def test_dense_verify_sends_no_small_stack_to_eigvalsh(case, monkeypatch):
    # 1 x 1 and 2 x 2 norms (products, frame and ladder estimates, the
    # resolvent samples) and frame eigenvalues are closed forms; the 4 x 4
    # rho matrices of the Jordan block still reach eigvalsh
    T, config = {
        "jordan": (cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
                   cs.SuiteConfig()),
        "1+e1": (cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]])),
                 cs.SuiteConfig(omega=0.9, theta=1.2)),
    }[case]
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    report = cs.run_theorem_suite(T, config=config)
    assert report["passed"] and report["contour"]["basis"]["path"] == "dense"
    assert all(shape[-1] > 2 for shape in shapes)
    assert any(shape[-1] == 4 for shape in shapes) == (case == "jordan")
