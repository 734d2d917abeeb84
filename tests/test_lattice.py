"""The contour's log lattice: frame families read off one profile sequence
per ray sign, the f_ab ladder from cell integrals on the same lattice, and
the claimed errors of family values against closed forms and the rational
oracle."""

import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.calculus import f_ab_nodes

from conftest import OMEGA, THETA


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
    return cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA, cfg), qcfg, stride


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec", [
    {"name": "regularizer"},
    {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                    "den": [1.0, 0.0, 2.0, 0.0, 1.0], "alpha": 1.0}},
], ids=["regularizer", "mixed-parity-rational"])
def test_lattice_family_equals_the_generic_family(n, spec):
    T = non_normal(n)
    eng, qcfg, stride = lattice_engine(T)
    f = cs.resolve_function(spec, theta=THETA)
    t, _ = qcfg.grid()
    # both signs, in an order that interleaves them
    ts = np.random.default_rng(n).permutation(t)
    mats, truncs, discs = eng.evaluate_family(f, ts, stride=stride)
    want, want_truncs, want_discs = eng.evaluate_family(f, ts)
    scale = np.abs(want).max()
    assert np.abs(mats - want).max() <= 1e-13 * scale
    assert np.abs(discs - want_discs).max() <= 1e-13 * scale
    assert np.array_equal(truncs, want_truncs)
    # one sign alone
    neg = -t[:t.size // 2]
    got = eng.evaluate_family(f, neg, stride=stride)[0]
    assert np.abs(got - eng.evaluate_family(f, neg)[0]).max() <= 1e-13 * scale


def test_lattice_family_refuses_scalings_off_the_lattice():
    T = non_normal(1)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()
    g = cs.regularizer(THETA)
    with pytest.raises(cs.ArgumentError, match="not on the contour lattice"):
        eng.evaluate_family(g, t, stride=stride + 1)
    with pytest.raises(cs.ArgumentError, match="not on the contour lattice"):
        eng.evaluate_family(g, t[::3], stride=stride)


def test_a_frame_family_and_a_ladder_rule_count_their_profile_points():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()
    g, seen = counting(cs.regularizer(THETA))
    eng.evaluate_family(g, t, stride=stride)
    assert t.size == 802 and seen[0] < 10_000
    seen[0] = 0
    f_ab_nodes(eng, g, 1e-4, 1e4)
    assert seen[0] < 200_000


@pytest.mark.parametrize("contour", ["default", "lattice"])
def test_f_ab_nodes_match_the_arctan_closed_form(contour):
    # the regularizer's f_ab is 2 (atan(b z) - atan(a z)) at every node
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    if contour == "lattice":
        eng = lattice_engine(T)[0]
    else:
        eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA)
    e = cs.regularizer(THETA)
    for k in range(1, 5):
        a, b = 10.0 ** -k, 10.0 ** k
        for points in (12, 6):
            got = f_ab_nodes(eng, e, a, b, points)
            want = 2.0 * (np.arctan(b * eng.z) - np.arctan(a * eng.z))
            assert np.abs(got - want).max() <= 1e-13


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
        eng, _, stride = lattice_engine(T, qcfg)
        mats, truncs, discs = eng.evaluate_family(g, t, stride=stride)
    else:
        eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA)
        mats, truncs, discs = eng.evaluate_family(g, t)
    gaps = np.linalg.norm(mats - closed_form_square([1.0, -2.0], t), 2, axis=(1, 2))
    assert np.all(gaps <= truncs + discs)


def test_family_values_lie_within_their_claims_of_the_rational_oracle():
    # g(tT) for the regularizer is the rational t s / (1 + t^2 s^2)
    T = non_normal(2)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()
    e = cs.regularizer(THETA)
    mats, truncs, discs = eng.evaluate_family(e, t, stride=stride)
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


def test_non_finite_lattice_profile_names_a_node_and_scaling():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng, qcfg, stride = lattice_engine(T)
    t, _ = qcfg.grid()

    def profile(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) > 5.0, np.nan, z / (1.0 + z * z))

    f = cs.IntrinsicFunction(profile, THETA, decay=cs.regularizer(THETA).decay)
    with pytest.raises(cs.NumericalFailureError) as err:
        eng.evaluate_family(f, -t, stride=stride)
    assert err.value.node["t"] in -t
    assert abs(err.value.node["t"]) * math.exp(err.value.node["u"]) > 5.0
