"""The spinor-block map: blades, the coefficient round trip, and agreement of
norms, sigma_min, eigenvalues, products and inverses with rho; the
composition norms and frame Grams on the blocks against their D x D forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec.calculus import _stored_nodes
from cliffspec.clifford import multiplication_table, spinor_blades
from cliffspec.module import block_form, blocks_from_rho, coeffs_from_blocks, spectral_norm
from cliffspec.quadrature import pairwise_sum
from cliffspec.suite import _composition_bound_records

from conftest import THETA, composition_nodes, contour_report

# kept blocks per n: (count r, spinor size k); n = 3 keeps both real classes
BLOCKS = {1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (1, 4), 5: (1, 4), 6: (1, 8)}


@st.composite
def operators(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return cs.CliffordOperator(n, m, rng.standard_normal((m, m, 1 << n)))


@pytest.mark.parametrize("n", range(1, 7))
def test_blades_multiply_like_the_algebra(n):
    gam = spinor_blades(n)
    assert gam.shape[0:1] + gam.shape[2:3] == BLOCKS[n]
    assert set(np.unique(gam)) <= {0, 1, -1, 1j, -1j}
    signs, masks = multiplication_table(n)
    for a in range(1 << n):
        for b in range(1 << n):
            assert np.array_equal(gam[:, a] @ gam[:, b], signs[a, b] * gam[:, masks[a, b]])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(operators())
def test_coefficient_round_trip(T):
    back = coeffs_from_blocks(block_form(T.coeffs, T.n), T.n)
    assert np.abs(back - T.coeffs).max() <= 1e-14 * max(1.0, np.abs(T.coeffs).max())


@settings(max_examples=30, derandomize=True, deadline=None)
@given(operators())
def test_blocks_carry_norm_sigma_min_and_eigenvalues(T):
    rho = cs.rho_matrix(T)
    bt = block_form(T.coeffs, T.n)
    svals = np.linalg.svd(rho, compute_uv=False)
    block_svals = np.linalg.svd(bt, compute_uv=False)
    assert abs(block_svals[:, 0].max() - svals[0]) <= 1e-13 * svals[0]
    assert abs(spectral_norm(bt).max() - svals[0]) <= 1e-13 * svals[0]
    assert abs(block_svals[:, -1].min() - svals[-1]) <= 1e-13 * svals[0]
    lam = np.linalg.eigvals(bt).ravel()
    lam = np.concatenate([lam, lam.conj()])
    full = np.linalg.eigvals(rho)
    gap = np.abs(full[:, None] - lam[None, :]).min
    assert max(gap(axis=1).max(), gap(axis=0).max()) <= 1e-9 * svals[0]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(operators(), st.integers(0, 2 ** 32 - 1))
def test_products_and_inverses_through_blocks(T, seed):
    S = cs.CliffordOperator(T.n, T.m, np.random.default_rng(seed).standard_normal(
        T.coeffs.shape))
    prod = coeffs_from_blocks(block_form(T.coeffs, T.n) @ block_form(S.coeffs, T.n), T.n)
    want = (T @ S).coeffs
    assert np.abs(prod - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    rho = cs.rho_matrix(T)
    if np.linalg.cond(rho) > 1e6:
        return
    inv = cs.CliffordOperator(T.n, T.m, coeffs_from_blocks(
        np.linalg.inv(block_form(T.coeffs, T.n)), T.n))
    assert np.abs(cs.rho_matrix(inv) @ rho - np.eye(rho.shape[0])).max() <= 1e-11


@pytest.mark.parametrize("n", range(1, 7))
def test_engine_stores_the_blocks_only(n):
    # diag(1, -2) is self-adjoint: P is kept as its real diagonals in the
    # eigenbasis, km float64 per block; the Jordan block keeps the complex
    # (km x km) blocks
    m = 2
    cfg = cs.ContourConfig(nodes=64)
    r, k = BLOCKS[n]
    for matrix, per_block in (([[1.0, 0.0], [0.0, -2.0]], k * m * 8),
                              ([[1.0, 1.0], [0.0, 1.0]], (k * m) ** 2 * 16)):
        T = cs.CliffordOperator.from_real_matrix(matrix, n=n)
        eng = cs.ContourEngine(T, contour_report(T), THETA, cfg)
        assert _stored_nodes(cfg) == 2 * 65 == eng.z.size
        assert eng.P.nbytes == eng.z.size * r * per_block
        assert eng.A.shape == (eng.z.size, m << n, m << n)


@pytest.fixture(scope="module", params=range(1, 5), ids=lambda n: f"n{n}")
def family_ctx(request):
    """A random non-normal T over R_n (2 x 2, upper triangular, diagonal
    1 + 0.2 e_1 and -2 + 0.3 e_n), its engine, and the regularizer family."""
    n = request.param
    coeffs = np.zeros((2, 2, 1 << n))
    coeffs[0, 0, 0], coeffs[0, 0, 1] = 1.0, 0.2
    coeffs[1, 1, 0], coeffs[1, 1, 1 << (n - 1)] = -2.0, 0.3
    coeffs[0, 1] = np.random.default_rng(n).standard_normal(1 << n)
    T = cs.CliffordOperator(n, 2, coeffs)
    cfg = cs.ContourConfig(nodes=400)
    eng = cs.ContourEngine(T, contour_report(T), THETA, cfg)
    g = cs.regularizer(THETA)
    t, w = cs.default_quad_grid(T, 64).grid()
    return T, cfg, eng, g, (t, w) + eng.evaluate_family(g, t)


def test_composition_norms_on_blocks_match_dense(family_ctx):
    # the three product patterns of the composition records: pairs, the
    # family against one value, and one row of the square kernel
    T, _, eng, g, (t, _, mats, _, _) = family_ctx
    blocks = blocks_from_rho(mats, T.n)
    one = eng.evaluate_family(g, [-0.7])[0]
    cases = [(mats[:-1] @ mats[1:], blocks[:-1] @ blocks[1:]),
             (mats @ one[0], blocks @ blocks_from_rho(one, T.n)[0]),
             (mats[5] @ mats[5:], blocks[5] @ blocks[5:])]
    for dense, block in cases:
        want = np.linalg.svd(dense, compute_uv=False)[:, 0]
        assert np.all(np.abs(spectral_norm(block).max(axis=-1) - want) <= 1e-12 * want)


def test_composition_records_match_their_dense_form(family_ctx):
    T, _, eng, g, family = family_ctx
    g = g.with_bounded(cs.certify_bounded(g))
    blocks = blocks_from_rho(family[2], T.n)
    records = _composition_bound_records("g", g, 1.0, *family[:2], blocks,
                                         np.random.default_rng(5))
    # the same draws, products and norms on the D x D values
    rng = np.random.default_rng(5)
    t_grid, w_grid, mats = family[:3]

    def norms(prods):
        return np.linalg.svd(prods, compute_uv=False)[..., 0]

    pairs, taus = composition_nodes(rng, t_grid)
    lhs_i = norms(mats[pairs[:, 0]] @ mats[pairs[:, 1]]).max()
    lhs_ii = max(pairwise_sum(w_grid * norms(mats @ mats[k])) for k in taus)
    # the kernel takes every second grid node within three decades of the
    # centre: the grid spans ten decades in N - 1 steps, so 3 (N - 1) // 10
    per_sign = t_grid.size // 2
    center, half = per_sign // 2, 3 * (per_sign - 1) // 10
    idx = np.arange(center - half, center + half + 1, 2)
    idx = np.concatenate([idx, idx + per_sign])
    t3, fam3 = t_grid[idx], mats[idx]
    h = math.log(t_grid[per_sign - 1] / t_grid[0]) / (per_sign - 1)
    w3 = np.tile(np.r_[h, np.full(idx.size // 2 - 2, 2 * h), h], 2)
    kernel = norms(fam3[:, None] @ fam3[None, :])
    lo, hi = sorted(10.0 ** rng.uniform(-2, 2, size=2))
    hi = max(hi, 10.0 * lo)
    mid = t_grid[center]
    psi = ((np.abs(t3) >= lo * mid) & (np.abs(t3) <= hi * mid)).astype(float)
    lhs_iii = pairwise_sum(w3 * (kernel.T @ (w3 * psi)) ** 2)
    for record, want in zip(records, (lhs_i, lhs_ii, lhs_iii)):
        assert record["lhs"] == pytest.approx(want, rel=1e-12)


def test_frame_bounds_on_blocks_match_the_dense_gram(family_ctx):
    T, _, _, g, family = family_ctx
    _, w, mats, _, _ = family
    fb = cs.frame_bounds(g, T, family=family)
    dense = pairwise_sum(w[:, None, None] * np.einsum("kca,kcb->kab", mats, mats))
    scale = np.linalg.norm(dense, 2)
    assert np.abs(fb.theta - dense).max() <= 1e-13 * scale
    # every block eigenvalue, once for each copy of its block in rho
    assert fb.eigenvalues.shape == (T.m << T.n,)
    assert np.abs(fb.eigenvalues - np.linalg.eigvalsh(fb.theta)).max() <= 1e-13 * scale


def test_transposed_family_gives_the_frames_of_the_adjoint(family_ctx):
    T, cfg, eng, g, family = family_ctx
    t, w, mats, truncs, discs = family
    t_star = T.adjoint()
    fb = cs.frame_bounds(g, T, family=family)
    fb_star = cs.frame_bounds(g, t_star, family=(t, w, np.swapaxes(mats, -1, -2),
                                                 truncs, discs))
    assert (fb_star.truncation_error, fb_star.discretization_error) == pytest.approx(
        (fb.truncation_error, fb.discretization_error), rel=1e-14)
    dense = pairwise_sum(w[:, None, None] * np.einsum("kac,kbc->kab", mats, mats))
    assert np.abs(fb_star.theta - dense).max() <= 1e-13 * np.linalg.norm(dense, 2)
    # as verify and frame assemble them: from the conjugate-transposed
    # blocks B^H of the engine, with the scale of T
    from_bh = cs.family_frames(g, eng, t, w, adjoint=True)[1]
    assert np.abs(from_bh.theta - fb_star.theta).max() <= 1e-14 * np.linalg.norm(dense, 2)
    assert np.abs(from_bh.eigenvalues - fb_star.eigenvalues).max() <= (
        1e-14 * np.linalg.norm(dense, 2))
    assert (from_bh.c_lower, from_bh.d_upper) == pytest.approx(
        (fb_star.c_lower, fb_star.d_upper), rel=1e-13)
    assert (from_bh.truncation_error, from_bh.discretization_error) == pytest.approx(
        (fb_star.truncation_error, fb_star.discretization_error), rel=1e-14)
    # against the frames of T* on its own certificate and engine
    eng_star = cs.ContourEngine(t_star, contour_report(t_star), THETA, cfg)
    fb_ind = cs.frame_bounds(g, t_star, family=(t, w) + eng_star.evaluate_family(g, t))
    tol = fb_star.combined_error + fb_ind.combined_error
    gaps = (np.linalg.norm(fb_star.theta - fb_ind.theta, 2),
            np.abs(fb_star.eigenvalues - fb_ind.eigenvalues).max())
    assert max(gaps) <= tol
    # the claims are loose on this coarse contour; the gaps are at roundoff
    assert max(gaps) <= 1e-12 * np.linalg.norm(dense, 2)
