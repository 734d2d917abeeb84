"""The a-priori bound of the contour's trapezoid rule: its error for an
integrand analytic in a strip, the claims it joins, and the node counts it
picks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec import calculus
from cliffspec.cli import main
from cliffspec.quadratic import _grid_engine
from cliffspec.quadrature import trapezoid_error
from cliffspec.suite import _certified

from conftest import OMEGA, THETA, contour_report, regularizer_family, self_adjoint_operator


@pytest.mark.parametrize("a", [0.5, 1.0, 1.4, 1.55])
def test_trapezoid_error_bounds_the_rule_for_sech(a):
    # sech u has its poles at +-i pi/2 and integrates to pi; in |Im u| < a,
    # |cosh(x + iy)|^2 = cosh^2 x - sin^2 y >= cos^2 y cosh^2 x, so each line
    # integrates |sech| to at most pi / cos a; the steps keep the error,
    # about 4 pi e^(-pi^2 / h), above the rounding of the sum
    for h in np.linspace(0.3, 2.0, 10):
        u = h * np.arange(-int(60 / h), int(60 / h) + 1)
        error = abs(h * np.sum(1.0 / np.cosh(u)) - math.pi)
        bound = trapezoid_error(a, h, math.pi / math.cos(a))
        assert error <= bound
        if a >= 1.4:    # a strip that nearly reaches the poles is tight
            assert bound <= 1e3 * error


def test_trapezoid_error_of_an_overflowed_exponential_is_zero():
    with np.errstate(all="raise"):
        assert trapezoid_error(1.0, 1e-3, 5.0) == 0.0
    assert np.array_equal(trapezoid_error(0.5, 0.1, np.array([0.0, 1.0])),
                          [0.0, 2.0 / math.expm1(10.0 * math.pi)])


@st.composite
def non_normal_operators(draw):
    """Upper-triangular m x m over R_n, D = m 2^n <= 8, with diagonal
    entries of modulus 0.5 to 2 whose slice angle is at most atan 0.2, inside
    the sector of OMEGA, and a random strictly upper part."""
    n, m = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    coeffs = np.zeros((m, m, 1 << n))
    for i in range(m):
        x = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        coeffs[i, i, 0] = x
        coeffs[i, i, 1:n + 1] = abs(x) * 0.2 * rng.uniform(-1.0, 1.0, n) / math.sqrt(n)
    coeffs += np.triu(np.ones((m, m)), 1)[:, :, None] * draw(st.floats(0.1, 3.0)) * (
        rng.standard_normal(coeffs.shape))
    return cs.CliffordOperator(n, m, coeffs)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(non_normal_operators(), st.integers(24, 400),
       st.sampled_from(range(len(cs.default_g_specs()))))
def test_each_claimed_discretization_covers_the_gap_to_a_finer_contour(T, nodes, which):
    # the claim of a coarse contour, its rule error included, against the
    # value on four times the nodes over the same range of u, so with the
    # same truncation
    g = cs.resolve_function(cs.default_g_specs()[which], THETA)
    rep = contour_report(T, phis=())
    coarse, fine = (cs.omega_calculus(g, T, rep, cs.ContourConfig(nodes=k))
                    for k in (nodes, 4 * nodes))
    gap = np.linalg.norm(cs.rho_matrix(coarse.op) - cs.rho_matrix(fine.op), 2)
    assert gap <= coarse.discretization_error


@pytest.mark.parametrize("theta", [1e-2, 1e-3])
def test_small_angle_family_values_lie_within_their_claims(theta):
    # diag(1, -2) at omega = theta / 2: the regularizer's family on the frame
    # grid against g(t lam), where the even/odd estimate alone missed by a
    # factor 1.5 (theta = 1e-2) and 26 (1e-3): the rule error of the strip
    # a = (31/32) theta / 4 now bounds what aliasing hides
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    g, engine, _, (t, _, _, truncs, discs), values = regularizer_family(
        T, theta / 2, theta, quad_nodes=400)
    want = g.eval_complex(t[:, None, None] * engine.basis.lam).real
    gaps = np.abs(values.d - want).max(axis=(1, 2)) + values.e.max(axis=-1)
    assert np.all(gaps <= truncs + discs)


def _verify_d32_operator():
    return self_adjoint_operator(np.random.default_rng(0), 3, 4)


@pytest.mark.parametrize("case, angles, stride", [
    ("diag", (OMEGA, THETA), 2),
    ("jordan", (OMEGA, THETA), 1),
    ("verify-d32", (OMEGA, THETA), 2),
    ("1+e1", (0.9, 1.2), 2),
])
def test_default_runs_take_the_stride_the_strip_allows(case, angles, stride):
    # the default g of verify on the perfbench operators: 1,045 nodes per ray
    # at the default angles, at stride 2 on the grids of every second node
    # of diag(1, -2) and verify-d32, and 2,087 in the strip 0.145 of 1 + e1
    T = {"diag": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
         "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
         "verify-d32": _verify_d32_operator(),
         "1+e1": cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]]))}[case]
    omega, theta = angles
    gs = [_certified("g", spec, theta) for spec in cs.default_g_specs()]
    rep = contour_report(T, omega, theta, phis=())
    _, _, engine, got = _grid_engine(T, rep, theta, gs)
    assert got == stride and engine.u_ray.size == (2087 if case == "1+e1" else 1045)
    errors = [engine.rule_error(g.decay) for g in gs]
    assert max(errors) <= calculus.RULE_TARGET
    if stride > 1:   # one stride less misses it
        coarser = engine.step * stride / (stride - 1)
        assert max(trapezoid_error(engine.strip, coarser,
                                   engine.c_strip * g.decay.c_alpha / g.decay.alpha)
                   for g in gs) > calculus.RULE_TARGET


def test_calc_takes_the_fewest_odd_nodes_that_meet_the_target(tmp_path):
    # the regularizer on diag(1, -2): M = C C_alpha / alpha = 7.50 in the
    # strip a = 0.254 needs h <= 2 pi a / log(1 + 2 M / 1e-10) = 0.0619, so
    # 971 nodes over u in [-30, 30]; --nodes caps it
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    op.write_text(json.dumps({"n": 1, "m": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-2, 0]]]}))
    fn.write_text(json.dumps({"name": "regularizer"}))
    T = cs.parse_operator_file(str(op))
    rep = contour_report(T, phis=())
    f = cs.regularizer(THETA)
    for nodes, want in ((2000, 971), (500, 501), (16, 17)):
        cfg = calculus.rule_contour(f, rep, cs.ContourConfig(nodes=nodes))
        assert cfg.nodes == want
        engine = cs.ContourEngine(T, rep, THETA, cfg)
        assert (engine.rule_error(f.decay) <= calculus.RULE_TARGET) == (want == 971)
    coarser = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=969))
    assert coarser.rule_error(f.decay) > calculus.RULE_TARGET
    out = tmp_path / "r.json"
    assert main(["calc", "--operator", str(op), "--function", str(fn), "--out", str(out)]) == 0
    default = json.loads(out.read_text())
    assert default["disc_err"] >= cs.ContourEngine(T, rep, THETA, calculus.rule_contour(
        f, rep, cs.ContourConfig())).rule_error(f.decay)
