"""The contour's log lattice: frame families read off one profile sequence
per ray sign, the f_ab ladder from cell integrals on the same lattice, and
the claimed errors of family values against closed forms and the rational
oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec import calculus, suite
from cliffspec.calculus import f_ab_nodes, lattice_correlations, lattice_roundoff
from cliffspec.module import block_norms

from conftest import OMEGA, THETA, contour_report


def counting(f):
    """f with a profile that counts the points it is evaluated at."""
    seen = [0]

    def profile(z):
        seen[0] += np.size(z)
        return f.profile(z)

    return cs.IntrinsicFunction(profile, f.theta, decay=f.decay), seen


def non_normal(n):
    """Upper-triangular 2 x 2 over R_n with diagonal 1 + 0.2 e_1 and
    -2 + 0.3 e_n and a random corner."""
    coeffs = np.zeros((2, 2, 1 << n))
    coeffs[0, 0, 0], coeffs[0, 0, 1] = 1.0, 0.2
    coeffs[1, 1, 0], coeffs[1, 1, 1 << (n - 1)] = -2.0, 0.3
    coeffs[0, 1] = np.random.default_rng(10 + n).standard_normal(1 << n)
    return cs.CliffordOperator(n, 2, coeffs)


def lattice_engine(T, qcfg=None):
    qcfg = qcfg or cs.default_quad_grid(T)
    cfg, stride = cs.lattice_contour(qcfg)
    return cs.ContourEngine(T, contour_report(T), THETA, cfg), qcfg, stride


def test_lattice_contour_at_the_defaults():
    qcfg = cs.QuadGridConfig(1e-5, 1e5)
    cfg, stride = cs.lattice_contour(qcfg)
    assert (stride, cfg.nodes, cfg.u_min) == (2, 2087, -30.0)
    assert cfg.u_max == pytest.approx(30.04, abs=5e-3)
    h_t = math.log(1e10) / 400
    assert (cfg.u_max - cfg.u_min) / (cfg.nodes - 1) == pytest.approx(h_t / 2, rel=1e-14)
    # --nodes bounds the step: a coarse request keeps the quadrature step
    cfg, stride = cs.lattice_contour(qcfg, cs.ContourConfig(phi=0.5, nodes=500))
    assert (stride, cfg.nodes, cfg.phi) == (1, 1045, 0.5)
    assert cfg.u_max >= 30.0


def per_value(eng, f, ts):
    """The family of ``eng`` at ``ts``, one scaling per evaluation."""
    out = [eng.evaluate_family(f, [t]) for t in ts]
    return tuple(np.concatenate([o[i] for o in out]) for i in range(3))


def lattice_points(eng, mags, stride):
    """Profile points of a family on ``stride`` times the contour step: one
    sequence per ray, covering the windows of every distinct |t|."""
    return 2 * ((len(mags) - 1) * stride + eng.u_ray.size)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec", [
    {"name": "regularizer"},
    {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                    "den": [1.0, 0.0, 2.0, 0.0, 1.0], "alpha": 1.0}},
], ids=["regularizer", "mixed-parity-rational"])
def test_lattice_family_equals_the_generic_family(n, spec, monkeypatch):
    # the family read off one sequence per ray against each value evaluated
    # on its own, at every 9th value; the two routes bound their roundoff
    # differently (FFT normwise, direct componentwise), so their even/odd
    # estimates are compared without it, and each lattice claim must cover
    # the gap to the generic value
    T = non_normal(n)
    eng, qcfg, stride = lattice_engine(T)
    f, seen = counting(cs.resolve_function(spec, theta=THETA))
    t, _ = qcfg.grid()
    # both signs, in an order that interleaves them, and one sign alone
    for ts in (np.random.default_rng(n).permutation(t), -t[:t.size // 2]):
        seen[0] = 0
        mats, truncs, discs = eng.evaluate_family(f, ts)
        assert seen[0] == lattice_points(eng, t[:t.size // 2], stride)
        want, want_truncs, _ = per_value(eng, f, ts[::9])
        scale = np.abs(want).max()
        assert np.abs(mats[::9] - want).max() <= 1e-13 * scale
        assert np.all(np.linalg.norm(mats[::9] - want, 2, axis=(1, 2)) <= discs[::9])
        assert np.array_equal(truncs[::9], want_truncs)
        with monkeypatch.context() as patch:
            patch.setattr(calculus, "lattice_roundoff", lambda *_: 0.0)
            patch.setattr(calculus, "_direct_roundoff", lambda *_: 0.0)
            parity = eng.evaluate_family(f, ts)[2][::9]
            want_parity = per_value(eng, f, ts[::9])[2]
        assert np.abs(parity - want_parity).max() <= 1e-13 * scale


def test_off_lattice_scalings_are_evaluated_per_value():
    # jittered off the lattice, each distinct |t| takes its own 2n profile
    # points, and the values are those of each scaling on its own
    T = non_normal(1)
    eng, qcfg, _ = lattice_engine(T)
    t, _ = qcfg.grid()
    mags = t[:t.size // 2][::10] * np.exp(1e-3 * np.random.default_rng(0).random(41))
    ts = np.concatenate([mags, -mags[::2]])
    g, seen = counting(cs.regularizer(THETA))
    mats, truncs, discs = eng.evaluate_family(g, ts)
    assert seen[0] == mags.size * 2 * eng.u_ray.size
    want, want_truncs, want_discs = per_value(eng, g, ts)
    scale = np.abs(want).max()
    assert np.abs(mats - want).max() <= 1e-13 * scale
    assert np.abs(discs - want_discs).max() <= 1e-13 * scale
    assert np.array_equal(truncs, want_truncs)


def test_a_strided_subgrid_is_found_on_the_lattice():
    # every 3rd |t| of the grid lies on the lattice with 3 times its stride
    T = non_normal(1)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()
    mags = t[:t.size // 2][::3]
    assert eng._stride(mags) == 3 * stride
    g, seen = counting(cs.regularizer(THETA))
    ts = np.concatenate([mags, -mags])
    mats = eng.evaluate_family(g, ts)[0]
    assert seen[0] == lattice_points(eng, mags, 3 * stride)
    want = per_value(eng, g, ts[::11])[0]
    assert np.abs(mats[::11] - want).max() <= 1e-13 * np.abs(want).max()


def test_a_frame_family_and_a_ladder_rule_count_their_profile_points():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()
    g, seen = counting(cs.regularizer(THETA))
    eng.evaluate_family(g, t)
    assert t.size == 802 and seen[0] == lattice_points(eng, t[:401], stride) == 5774
    seen[0] = 0
    f_ab_nodes(eng, g, 1e-4, 1e4)
    assert seen[0] < 200_000


def test_a_frame_family_builds_no_node_terms():
    # the family is one FFT correlation of the profile sequences with the
    # kernels fa P, fb P: no (values x nodes) alpha or beta is built, one of
    # which alone would take 802 x 4174 x 8 bytes = 27 MB
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng, qcfg, _ = lattice_engine(T)
    g = cs.regularizer(THETA)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cs.family_frames(g, eng, *qcfg.grid(), adjoint=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_claims_cover_the_gap_to_the_per_value_evaluation(n):
    # every value of a 130-value family over 16 decades, most of them far
    # below the largest, against the direct node sums of each value alone:
    # the FFT's error is normwise, so the small values test its bound
    T = non_normal(n)
    qcfg = cs.default_quad_grid(T)
    qcfg = cs.QuadGridConfig(qcfg.t_min * 1e-3, qcfg.t_max * 1e3, nodes=64)
    eng = lattice_engine(T, qcfg)[0]
    t, _ = qcfg.grid()
    g = cs.regularizer(THETA)
    mats, _, discs = eng.evaluate_family(g, t)
    want = per_value(eng, g, t)[0]
    assert np.abs(want).max() > 1e6 * np.abs(want[[0, t.size // 2]]).max()
    assert np.all(np.linalg.norm(mats - want, 2, axis=(1, 2)) <= discs)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 40), st.integers(4, 300), st.integers(1, 3),
       st.floats(0.0, 30.0), st.integers(0, 2 ** 32 - 1))
def test_lattice_roundoff_covers_the_fft_correlation(stride, count, n, km, decades, seed):
    # the values S_0 + S_1 of the phase correlations of a lattice family,
    # with a dense km x km T folded into the second part's kernels, against
    # a long-double direct correlation of the exact kernels fa P, -fb T P, on
    # sequences and blocks P whose entries spread over ``decades`` decades
    # each way: each value within the roundoff of its two phase pairs
    rng = np.random.default_rng(seed)
    length = (count - 1) * stride + n

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades, decades, shape)

    seqs = draw(3, 4, length)   # (sign, part and ray, length)
    P = draw(2, n, km, km) + 1j * draw(2, n, km, km)
    T = rng.standard_normal((km, km)) + 1j * rng.standard_normal((km, km))
    fa, fb = draw(2, n, 1, 1), draw(2, n, 1, 1)
    formed = np.concatenate([fa * P, -fb * (T @ P)]).reshape(4, n, -1).view(float)
    P_ld, T_ld = P.astype(np.clongdouble), T.astype(np.clongdouble)
    exact = np.concatenate([fa * P_ld, -fb * (T_ld @ P_ld)]).reshape(4, n, -1)
    exact = np.stack([exact.real, exact.imag], axis=-1).reshape(formed.shape)
    p_fro = np.linalg.norm(P, axis=(-2, -1))
    norms = np.concatenate([np.abs(fa[..., 0, 0]) * p_fro,
                            np.linalg.norm(T, 2) * np.abs(fb[..., 0, 0]) * p_fro])
    g = (km + 1) * np.finfo(float).eps
    fold = np.repeat([np.finfo(float).eps, math.sqrt(km) * g / (1.0 - g)], 2)

    half = (length + 1) // 2
    size = calculus._smooth_size(half)
    phases = np.zeros((2, 3, 4, half))
    phases[0], phases[1, ..., :length // 2] = seqs[..., ::2], seqs[..., 1::2]
    kernels = np.concatenate([formed, np.zeros((4, n % 2, formed.shape[-1]))], axis=1)
    kernels = kernels.reshape(4, -1, 2, formed.shape[-1]).transpose(2, 3, 0, 1)
    sums = lattice_correlations(np.fft.rfft(phases, size).conj(), kernels, size, stride, count)
    # S_0 + S_1, and the roundoff of the two phase pairs of each value
    got, bound, j = sums[0] + sums[1], np.zeros(count), np.arange(count)
    for c in (0, 1):
        for q in (0, 1):
            js = j[(j * stride + q) % 2 == c]
            if js.size:
                bound[js] += lattice_roundoff(phases[c], norms[:, q::2], fold)
    s = seqs.astype(np.longdouble)
    windows = np.stack([s[..., i * stride:i * stride + n] for i in j], axis=-3)
    want = np.einsum("ajrk,rkc->ajc", windows, exact)
    gap = np.sqrt((((got - want) ** 2).sum(axis=-1)).astype(float))
    assert np.all(gap <= bound)


@pytest.mark.parametrize("contour", ["default", "lattice"])
def test_f_ab_nodes_match_the_arctan_closed_form(contour):
    # the regularizer's f_ab is 2 (atan(b z) - atan(a z)) at every node z
    # of the + ray
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    if contour == "lattice":
        eng = lattice_engine(T)[0]
    else:
        eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA)
    e = cs.regularizer(THETA)
    z = np.exp(eng.u_ray) * np.exp(1j * eng.phi)
    k = np.arange(1, 5)
    # each rung alone, and the four as one array of windows
    for a, b in [*zip(10.0 ** -k, 10.0 ** k), (10.0 ** -k, 10.0 ** k)]:
        for points in (12, 6):
            got = f_ab_nodes(eng, e, a, b, points)
            want = 2.0 * (np.arctan(np.multiply.outer(b, z)) - np.arctan(np.multiply.outer(a, z)))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("T", [
    cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1), non_normal(2),
], ids=["eigen", "dense"])
def test_each_rung_lies_within_its_claim_of_the_one_window_operator(T):
    # the rungs of one call, sampled on the cells of the widest window, move
    # from the one-window operator of each by less than their claimed error
    rep = contour_report(T)
    eng = lattice_engine(T)[0]
    e = cs.regularizer(THETA)
    windows = [(10.0 ** -k, 10.0 ** k) for k in range(1, 5)]
    rungs = calculus.f_ab_operators(e, windows, T, rep, engine=eng)
    for (a, b), rung in zip(windows, rungs):
        one = cs.f_ab_operator(e, a, b, T, rep, engine=eng)
        gap = np.linalg.norm(cs.rho_matrix(rung.op) - cs.rho_matrix(one.op), 2)
        assert gap <= rung.combined_error


def test_the_ladder_samples_once_and_contracts_once(monkeypatch):
    # the four rungs (10^-k, 10^k) of ``verify`` in one contraction, on
    # samples of G over the cells of the widest rung only: 2 rays x 12
    # points x (2,087 + 640) cells = 65,448 profile points
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    rep = cs.check_bisectorial(T, OMEGA)
    cfg, _ = cs.lattice_contour(cs.default_quad_grid(T))
    eng = cs.ContourEngine(T, rep, THETA, cfg)
    g, seen = counting(cs.regularizer(THETA))
    cs.f0_infty(g)
    target_points, seen[0] = seen[0], 0
    calls = []
    contract = calculus.ContourEngine._contract

    def counted(self, parts, *args):
        calls.append(parts[0].shape)
        return contract(self, parts, *args)

    monkeypatch.setattr(calculus.ContourEngine, "_contract", counted)
    monkeypatch.setattr(suite, "regularizer", lambda theta: g)
    records = suite._fab_ladder_records(T, rep, cfg, THETA, eng)
    assert records[-1]["name"] == "truncation_ladder_monotone" and records[-1]["pass"]
    assert len(calls) == 1 and calls[0][:2] == (2, 4)
    assert seen[0] - target_points <= 65_448


def correlate(seqs, kernels, stride):
    """sum_r sum_k seqs[..., r, j stride + k] kernels[r, k] at every j with
    a whole window, as (..., j, columns), by real FFTs of whole sequences."""
    size = calculus._smooth_size(seqs.shape[-1])
    prod = (np.fft.rfft(seqs, size)[..., None, :, :]
            * np.fft.rfft(kernels.transpose(2, 0, 1), size).conj()).sum(axis=-2)
    lags = slice(0, seqs.shape[-1] - kernels.shape[1] + 1, stride)
    return np.fft.irfft(prod, size)[..., lags].swapaxes(-1, -2)


def two_pass_contract(eng, parts, signs, p):
    """The lattice family as two passes over whole sequences with the
    kernels fa P, fb P and T applied to the sums of fb P: the values, and
    their estimates from the alternated pass plus the FFT roundoff bound of
    whole sequences."""
    n = eng.u_ray.size
    seqs = [np.stack([part[[flip, 1 - flip]] for flip in map(int, signs)]) for part in parts]
    kernels = eng._p_flat.reshape(1, 2, n, -1) * np.reshape([eng._fa, eng._fb], (2, 2, n, 1))
    alternate = np.where(np.arange(parts[0].shape[-1]) % 2, -1.0, 1.0)

    def node_sums(sign):
        sums = [correlate(seq * sign, kernel, p) for seq, kernel in zip(seqs, kernels)]
        return eng._combine(*(s.reshape(-1, s.shape[-1]) for s in sums))

    roundoff = sum(lattice_roundoff(seq, norms, np.zeros(2))
                   for seq, norms in zip(seqs, eng._k_fro))
    return node_sums(1.0), block_norms(eng._values(node_sums(alternate))), roundoff


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("case", ["diag", "jordan", "non-normal"])
def test_a_lattice_family_transforms_each_kernel_block_once(case, stride, monkeypatch):
    # the sums over the even and the odd nodes, each a correlation of half
    # length per phase pair (two at an even stride, four at an odd one),
    # with T folded into the kernels: each kernel block is formed and
    # transformed once, each pair and block takes one inverse transform for
    # both signs, and each value lies within its claim of the two-pass
    # value, claiming no more than the two passes do; every stride-th |t|
    # of the grid on a 500-node contour (stride 1), on the eigen path, the
    # Jordan block and a dense D = 16
    T = {"diag": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
         "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "non-normal": non_normal(3)}[case]
    qcfg = cs.default_quad_grid(T)
    cfg, _ = cs.lattice_contour(qcfg, cs.ContourConfig(nodes=500))
    eng = cs.ContourEngine(T, contour_report(T), THETA, cfg)
    assert (eng.basis is None) == (case != "diag")
    t, _ = qcfg.grid()
    t = t[:t.size // 2][::stride]
    t = np.concatenate([t, -t])
    mags, which = np.unique(np.abs(t), return_inverse=True)
    _, _, parts, p = next(eng._windows(cs.regularizer(THETA), t, mags, which))
    assert p == stride
    blocks, rffts, irffts = [], [], []
    kernels, rfft, irfft = calculus.ContourEngine._kernels, np.fft.rfft, np.fft.irfft

    def counted_kernels(self, cols):
        blocks.append(cols.copy())
        return kernels(self, cols)

    def counted(shapes, fn):
        def wrapper(x, *args):
            shapes.append(x.shape)
            return fn(x, *args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(calculus.ContourEngine, "_kernels", counted_kernels)
        patch.setattr(np.fft, "rfft", counted(rffts, rfft))
        patch.setattr(np.fft, "irfft", counted(irffts, irfft))
        values, estimates = eng._contract(parts, [False, True], p)
    cols = eng._p_flat.shape[1]
    assert len(blocks) == -(-cols // calculus._COLUMNS)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(cols))
    # the phases of the sequences once, then each kernel block once
    half, nodes = rffts[0][-1], (eng.u_ray.size + 1) // 2
    assert rffts == [(2, 2, 4, half)] + [(2, b.size, 4, nodes) for b in blocks]
    pairs = 2 if stride % 2 == 0 else 4
    assert irffts == [(2, b.size, irffts[0][-1]) for b in blocks for _ in range(pairs)]

    want_values, want_parity, want_roundoff = two_pass_contract(eng, parts, [False, True], p)
    assert np.all(block_norms(eng._values(values - want_values)) <= estimates)
    with monkeypatch.context() as patch:
        patch.setattr(calculus, "lattice_roundoff", lambda *_: 0.0)
        parity = eng._contract(parts, [False, True], p)[1]
    assert np.abs(parity - want_parity).max() <= 1e-13 * block_norms(eng._values(values)).max()
    assert np.all(estimates <= want_parity + want_roundoff)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.sampled_from([(OMEGA, THETA), (0.05, 0.1), (0.3, 1.4)]), st.integers(16, 200),
       st.sampled_from([2, 3, 4, 6, 12]))
def test_the_node_error_bound_covers_the_rule(angles, nodes, points):
    # on coarse contours, where few points per cell err visibly, each node
    # value of the regularizer's f_ab against 2 (atan(b z) - atan(a z))
    omega, theta = angles
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    rep = cs.check_bisectorial(T, omega, cs.RaySampling(phis=(0.5 * (omega + theta),)))
    eng = cs.ContourEngine(T, rep, theta, cs.ContourConfig(nodes=nodes))
    e = cs.regularizer(theta)
    a, b = 10.0 ** -np.arange(0.3, 5.0, 0.7), 10.0 ** np.arange(0.3, 5.0, 0.7)
    z = np.exp(eng.u_ray) * np.exp(1j * eng.phi)
    want = 2.0 * (np.arctan(np.multiply.outer(b, z)) - np.arctan(np.multiply.outer(a, z)))
    gap = np.abs(f_ab_nodes(eng, e, a, b, points) - want).max(axis=-1)
    assert np.all(gap <= calculus.f_ab_node_error(eng, e, a, b, points))


def _rungs_and_reference(T, omega, theta, points):
    """The four rungs of ``verify``'s ladder and, per rung, the reference
    value: the closed form for a real diagonal T, else the contraction of
    ``f_ab_nodes`` at ``points`` points per cell."""
    rep = contour_report(T, omega, theta, phis=())
    cfg, _ = cs.lattice_contour(cs.default_quad_grid(T))
    eng = cs.ContourEngine(T, rep, theta, cfg)
    e = cs.regularizer(theta)
    a, b = 10.0 ** -np.arange(1, 5), 10.0 ** np.arange(1, 5)
    rungs = calculus.f_ab_operators(e, list(zip(a, b)), T, rep, engine=eng)
    if points is None:
        lam = np.diag(T.coeffs[..., 0])
        want = [np.diag(2.0 * (np.arctan(hi * lam) - np.arctan(lo * lam))) for lo, hi in zip(a, b)]
        return rungs, [cs.rho_matrix(cs.CliffordOperator.from_real_matrix(d, n=T.n)) for d in want]
    rays = f_ab_nodes(eng, e, a, b, points)
    sums, _ = eng._contract(eng._parts(np.stack([rays, -rays])), [False])
    coeffs = cs.module.coeffs_from_blocks(eng.dense_blocks(eng._values(sums)), T.n)
    return rungs, [cs.rho_matrix(cs.CliffordOperator(T.n, T.m, c)) for c in coeffs]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.sampled_from([(OMEGA, THETA), (0.05, 0.1)]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_each_rung_claim_covers_its_gap(angles, diagonal, seed):
    # a real diagonal T against the closed form 2 (atan(b lam) - atan(a lam)),
    # a non-normal 2 x 2 (real diagonal, random corner over R_2) against the
    # ladder at 24 points per cell
    rng = np.random.default_rng(seed)
    lam = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-1.0, 1.0, 2)
    if diagonal:
        T = cs.CliffordOperator.from_real_matrix(np.diag(lam), n=1)
    else:
        coeffs = np.zeros((2, 2, 4))
        coeffs[[0, 1], [0, 1], 0] = lam
        coeffs[0, 1] = rng.standard_normal(4)
        T = cs.CliffordOperator(2, 2, coeffs)
    rungs, want = _rungs_and_reference(T, *angles, None if diagonal else 24)
    for rung, ref in zip(rungs, want):
        assert np.linalg.norm(cs.rho_matrix(rung.op) - ref, 2) <= rung.combined_error


def closed_form_square(T_diag, ts):
    """rho((t T (1 + t^2 T^2)^-1)^2) for a real diagonal T, per t."""
    lam = np.asarray(T_diag, dtype=float)
    out = []
    for t in ts:
        x = t * lam
        d = cs.CliffordOperator.from_real_matrix(np.diag((x / (1.0 + x * x)) ** 2), n=1)
        out.append(cs.rho_matrix(d))
    return np.array(out)


@pytest.mark.parametrize("contour", ["default", "lattice"])
def test_frame_values_of_the_square_lie_within_their_claims(contour):
    # each of the 802 regularizer^2 values on diag(1, -2) is within its
    # truncation + discretization estimate of the closed form; without the
    # roundoff term of the node sums about half of them were not
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    e = cs.regularizer(THETA)
    g = cs.product_function(e, e)
    qcfg = cs.default_quad_grid(T)
    t, _ = qcfg.grid()
    if contour == "lattice":
        eng = lattice_engine(T, qcfg)[0]
        mats, truncs, discs = eng.evaluate_family(g, t)
    else:
        eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA)
        mats, truncs, discs = eng.evaluate_family(g, t)
    gaps = np.linalg.norm(mats - closed_form_square([1.0, -2.0], t), 2, axis=(1, 2))
    assert np.all(gaps <= truncs + discs)


def test_family_values_lie_within_their_claims_of_the_rational_oracle():
    # g(tT) for the regularizer is the rational t s / (1 + t^2 s^2)
    T = non_normal(2)
    eng, qcfg, _ = lattice_engine(T)
    t, _ = qcfg.grid()
    e = cs.regularizer(THETA)
    mats, truncs, discs = eng.evaluate_family(e, t)
    for i in range(0, t.size, 20):
        oracle = cs.rational_calculus(cs.rational_function([t[i], 0.0], [t[i] ** 2, 0.0, 1.0]),
                                      T)
        gap = np.linalg.norm(mats[i] - cs.rho_matrix(oracle), 2)
        assert gap <= truncs[i] + discs[i]


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_families_refuse_a_zero_or_non_finite_scaling(bad):
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    rep = cs.check_bisectorial(T, OMEGA)
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=64))
    with pytest.raises(cs.ArgumentError, match="nonzero and finite"):
        eng.evaluate_family(cs.regularizer(THETA), [1.0, bad])
    with pytest.raises(cs.ArgumentError, match="nonzero and finite"):
        cs.dyadic_sign_identity(cs.regularizer(THETA), T, cs.ModuleVector.zero(1, 2), bad, 1,
                                engine=eng)


def nan_beyond_5():
    """The regularizer's profile, NaN at |z| > 5."""
    def profile(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) > 5.0, np.nan, z / (1.0 + z * z))

    return cs.IntrinsicFunction(profile, THETA, decay=cs.regularizer(THETA).decay)


def assert_names_a_node_and_scaling(ts):
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng = lattice_engine(T)[0]
    with pytest.raises(cs.NumericalFailureError) as err:
        eng.evaluate_family(nan_beyond_5(), ts)
    assert err.value.node["t"] in ts
    assert abs(err.value.node["t"]) * math.exp(err.value.node["u"]) > 5.0


def test_non_finite_lattice_profile_names_a_node_and_scaling():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    t, _ = cs.default_quad_grid(T).grid()
    assert_names_a_node_and_scaling(-t)


def test_non_finite_off_lattice_profile_names_a_node_and_scaling():
    assert_names_a_node_and_scaling(np.array([-3e-4, 0.7, -2.1, 7.0]))
