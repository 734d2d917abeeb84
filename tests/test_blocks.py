"""The spinor-block map: blades, the coefficient round trip, and agreement of
norms, sigma_min, eigenvalues, products and inverses with rho."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec.calculus import _stored_nodes
from cliffspec.clifford import multiplication_table, spinor_blades
from cliffspec.module import block_form, coeffs_from_blocks, spectral_norm

from conftest import OMEGA, THETA

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
    m = 2
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=n)
    cfg = cs.ContourConfig(nodes=64)
    eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA, cfg)
    r, k = BLOCKS[n]
    assert _stored_nodes(cfg) == 2 * 65 == eng.z.size
    assert eng.P.nbytes == eng.z.size * r * (k * m) ** 2 * 16
    assert eng.A.shape == (eng.z.size, m << n, m << n)
