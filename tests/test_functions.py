import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec import quadrature
from cliffspec.functions import DEFAULT_THETA, _sample_points, arctan_tails, ensure_bounded
from cliffspec.quadrature import gl_panel_grid


def test_regularizer_value_at_one():
    e = cs.regularizer()
    val = cs.eval_intrinsic(e, cs.Paravector(1.0, np.zeros(1)))
    assert val.s0 == pytest.approx(0.5)
    assert np.array_equal(val.svec, [0.0])


def test_domain_error_on_imaginary_axis():
    e = cs.regularizer()
    with pytest.raises(cs.DomainError):
        cs.eval_intrinsic(e, cs.Paravector(0.0, np.array([2.0])))
    with pytest.raises(cs.DomainError):
        cs.eval_intrinsic(e, cs.Paravector(0.0, np.zeros(1)))


def test_eval_matches_complex_oracle():
    # the point 1 + e_2 has slice angle pi/4, so the sector must be wider
    e = cs.regularizer(theta=1.0)
    s = cs.Paravector(1.0, np.array([0.0, 1.0]))
    val = cs.eval_intrinsic(e, s)
    z = complex(1.0, 1.0)
    w = z / (1.0 + z * z)
    assert val.s0 == pytest.approx(w.real, rel=1e-14)
    assert np.allclose(val.svec, [0.0, w.imag], atol=1e-14)


def test_value_transport_across_slices():
    f = cs.e_alpha_family(0.5)
    x, y = 0.8, 0.4
    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    vals = []
    for axis in axes:
        v = cs.eval_intrinsic(f, cs.Paravector(x, y * axis))
        comp = v.svec[v.svec != 0.0]
        vals.append((v.s0, comp[0] if comp.size else 0.0))
    assert vals[0] == vals[1]


def test_real_axis_component_vanishes():
    for f in (cs.regularizer(), cs.e_alpha_family(0.7),
              cs.rational_function([1, 0, 0], [1, 0, 1])):
        v = cs.eval_intrinsic(f, cs.Paravector(1.3, np.zeros(2)))
        assert np.array_equal(v.svec, np.zeros(2))


def test_regularizer_decay_bound_on_samples():
    theta = DEFAULT_THETA
    e = cs.regularizer(theta)
    z = _sample_points(theta, 1000)
    vals = np.abs(e.eval_complex(z))
    r = np.abs(z)
    bound = (1.0 / math.cos(theta)) * r / (1.0 + r * r)
    assert np.all(vals <= bound * (1 + 1e-12))


def test_e_alpha_reduces_to_regularizer_on_right_half():
    e = cs.regularizer()
    e1 = cs.e_alpha_family(1.0)
    for z in (0.5 + 0.2j, 2.0 + 0.0j, 1.0 - 0.5j):
        assert complex(e1.eval_complex(z)) == pytest.approx(complex(e.eval_complex(z)))


def test_e_alpha_regularization_bound():
    # |e_alpha(s) f(s)| <= sup|f| / cos(theta) uniformly on the sector samples
    theta = DEFAULT_THETA
    f = cs.rational_function([1, 0, 0], [1, 0, 1], theta)
    f = f.with_bounded(cs.certify_bounded(f))
    for alpha in (0.25, 0.5, 1.0):
        ea = cs.e_alpha_family(alpha, theta)
        z = _sample_points(theta, 300)
        vals = np.abs(ea.eval_complex(z) * f.eval_complex(z))
        assert np.max(vals) <= f.bounded.sup_norm / math.cos(theta) * (1 + 1e-9)


def test_e_alpha_range_check():
    with pytest.raises(cs.ArgumentError):
        cs.e_alpha_family(0.0)
    with pytest.raises(cs.ArgumentError):
        cs.e_alpha_family(1.5)


def test_scale_function_identity_and_oddness():
    e = cs.regularizer()
    same = cs.scale_function(e, 1.0)
    z = 0.7 + 0.1j
    assert complex(same.eval_complex(z)) == complex(e.eval_complex(z))
    flipped = cs.scale_function(e, -1.0)
    assert complex(flipped.eval_complex(z)) == pytest.approx(-complex(e.eval_complex(z)))
    with pytest.raises(cs.ArgumentError):
        cs.scale_function(e, 0.0)


def test_scaled_certificate_valid_on_samples():
    e = cs.regularizer()
    for t in (0.3, 2.0, -5.0):
        g = cs.scale_function(e, t)
        z = _sample_points(g.theta, 1000)
        vals = np.abs(g.eval_complex(z))
        r = np.abs(z)
        a, c = g.decay.alpha, g.decay.c_alpha
        assert np.all(vals <= c * r ** a / (1 + r ** (2 * a)) * (1 + 1e-12))


def test_f0_infty_regularizer_is_pi():
    assert cs.f0_infty(cs.regularizer()) == pytest.approx(math.pi, abs=1e-8)


def test_f0_infty_cubed_regularizer():
    e = cs.regularizer()
    e3 = cs.product_function(e, e, e)
    assert cs.f0_infty(e3) == pytest.approx(math.pi / 8, abs=1e-8)


def test_f0_infty_slice_independent():
    e = cs.regularizer()
    s = cs.Paravector(math.cos(math.pi / 8), np.array([math.sin(math.pi / 8)]))
    assert cs.f0_infty(e, direction=s) == pytest.approx(cs.f0_infty(e), abs=1e-6)


def test_f0_infty_refuses_a_decay_too_slow_for_its_grid():
    # at alpha = 1e-320 the grid's half-width divides by alpha * 1e-9 = 0
    with pytest.raises(cs.ArgumentError, match="alpha=9.99989e-321 needs inf grid nodes"):
        cs.f0_infty(cs.e_alpha_family(1e-320))


def test_f0_infty_requires_decay():
    bare = cs.rational_function([1, 0], [1, 0, 1])
    with pytest.raises(cs.PreconditionError):
        cs.f0_infty(bare)


def test_f_ab_empty_interval_is_zero():
    e = cs.regularizer()
    fab = cs.f_ab_function(e, 2.0, 2.0)
    assert complex(fab.eval_complex(1.0 + 0.2j)) == 0.0


def test_f_ab_ordering_check():
    with pytest.raises(cs.ArgumentError):
        cs.f_ab_function(cs.regularizer(), 2.0, 1.0)


def test_f_ab_convergence_below_arctan_bound():
    e = cs.regularizer()
    s = cs.Paravector(1.0, np.zeros(1))
    target = cs.f0_infty(e)
    for k in (1, 2, 3):
        a, b = 10.0 ** -k, 10.0 ** k
        fab = cs.f_ab_function(e, a, b)
        err = abs(cs.eval_intrinsic(fab, s).s0 - target)
        assert err <= cs.f_ab_tail_bound(e.decay, a, b, scale=1.0)
        # exact value: 2 arctan(a) + 2 arctan(1/b)
        exact = 2 * math.atan(a) + 2 * math.atan(1.0 / b)
        assert err == pytest.approx(exact, rel=1e-6)


def test_f_ab_sup_bound():
    e = cs.regularizer()
    fab = cs.f_ab_function(e, 0.01, 100.0)
    z = _sample_points(fab.theta, 300)
    vals = np.abs(fab.eval_complex(z))
    assert np.max(vals) <= e.decay.c_alpha * math.pi / e.decay.alpha * (1 + 1e-9)
    assert fab.bounded.sup_norm == pytest.approx(e.decay.c_alpha * math.pi)


def test_f_ab_profile_memory_does_not_grow_with_log_b_over_a():
    # 3,316 t-nodes at a = 1e-30, b = 1e30: one (t-nodes x points) complex
    # array on 4,004 points would take 212 MB; the profile goes in column
    # chunks, and its values are 2 (atan(b z) - atan(a z))
    a, b = 1e-30, 1e30
    fab = cs.f_ab_function(cs.regularizer(), a, b)
    rng = np.random.default_rng(0)
    z = (rng.choice([-1.0, 1.0], 4004) * np.exp(rng.uniform(-3.0, 3.0, 4004))
         * np.exp(1j * rng.uniform(-0.7, 0.7, 4004)))
    t_nodes = gl_panel_grid(math.log(a), math.log(b))[0].size
    tracemalloc.start()
    try:
        vals = fab.eval_complex(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t_nodes * z.size * 16 / 8
    np.testing.assert_allclose(vals, 2.0 * (np.arctan(b * z) - np.arctan(a * z)),
                               rtol=0.0, atol=1e-13)


def test_rational_profile_is_finite_where_polyval_overflows():
    # np.polyval squares z, which overflows above |z| ~ 1.3e154; those
    # points are evaluated in 1/z, without numpy warnings
    z = 1e200 * np.exp(1j * np.array([0.3, -0.3, math.pi - 0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = cs.regularizer().eval_complex(z)
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose(vals, 1.0 / z, rtol=1e-15, atol=0.0)


def test_f_ab_of_the_regularizer_at_1e200_matches_the_arctan_closed_form():
    a, b = 1e-200, 1e200
    z = np.exp(np.array([-30.0, -2.0, 0.0, 3.0, 30.0])) * np.exp(1j * 0.5)
    z = np.concatenate([z, -z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = cs.f_ab_function(cs.regularizer(), a, b).eval_complex(z)
    np.testing.assert_allclose(vals, 2.0 * (np.arctan(b * z) - np.arctan(a * z)),
                               rtol=0.0, atol=1e-14)


def test_certify_decay_regularizer():
    theta = DEFAULT_THETA
    e = cs.rational_function([1, 0], [1, 0, 1], theta)
    cert = cs.certify_decay(e, 1.0)
    assert cert.alpha == 1.0
    assert cert.c_alpha <= 1.0 / math.cos(theta) + 1e-9
    assert cert.samples == 10 * 1000


def test_certify_decay_rejects_constants():
    one = cs.rational_function([1.0], [1.0])
    for alpha in (0.5, 1.0, 2.0):
        with pytest.raises(cs.CertificationError):
            cs.certify_decay(one, alpha)


def test_certify_decay_order_two():
    e = cs.regularizer()
    e2 = cs.product_function(e, e)
    cert = cs.certify_decay(e2, 2.0)
    assert cert.c_alpha <= (1.0 / math.cos(DEFAULT_THETA)) ** 2 + 1e-9


def test_certify_bounded():
    f = cs.rational_function([1, 0, 0], [1, 0, 1])
    cert = cs.certify_bounded(f)
    z = _sample_points(f.theta, 1000)
    assert np.all(np.abs(f.eval_complex(z)) <= cert.sup_norm)


def test_certify_decay_evaluates_each_profile_once():
    # one pass over the sample set gives C_alpha and the narrow window of the
    # stability check, which reads the wide set's radii in [1e-2, 1e2]
    g = cs.resolve_function(cs.default_g_specs()[2])
    seen = []

    def counting(z):
        seen.append(z.size)
        return g.profile(z)

    cert = cs.certify_decay(cs.IntrinsicFunction(counting, g.theta), 1.0)
    assert sum(seen) == cert.samples == 10_000
    assert cert.c_alpha == g.decay.c_alpha == 2.4140010885392806


@pytest.mark.parametrize("num, den, message", [
    ([1.0], [1.0, -3.0], "pole at 3,"),
    ([1.0], [1.0, 0.0], "pole at 0,"),
    ([1.0], [1.0, 0.0, -1.0, 0.0], "pole at "),
    ([1.0], [1.0, -2.0, 2.0], "pole at 1+1j,"),
], ids=["real", "zero", "on-both-halves", "on-the-edge"])
def test_certificates_refuse_a_rational_with_a_pole_in_the_closed_sector(num, den, message):
    f = cs.rational_function(num, den)
    for certify in (cs.certify_bounded, lambda f: cs.certify_decay(f, 1.0)):
        with pytest.raises(cs.CertificationError, match=re.escape(message)):
            certify(f)


def test_certify_bounded_refuses_a_rational_that_grows_at_infinity():
    for num, den in (([1.0, 0.0], [0.0, 0.0, 1.0]), ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0])):
        with pytest.raises(cs.CertificationError, match="numerator has degree"):
            cs.certify_bounded(cs.rational_function(num, den))
    # leading zeros do not count as degree: s^2 / (1 + s^2) is bounded
    f = cs.rational_function([0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    assert cs.certify_bounded(f).sup_norm == pytest.approx(1.0)


def test_cauchy_riemann_residuals(rng):
    theta = DEFAULT_THETA
    builtins = [
        cs.regularizer(theta),
        cs.e_alpha_family(0.5, theta),
        cs.rational_function([1.0, 2.0, 0.0], [1.0, 0.0, 3.0], theta),
        cs.scale_function(cs.regularizer(theta), 2.0),
        cs.f_ab_function(cs.regularizer(theta), 0.1, 10.0),
        cs.product_function(cs.regularizer(theta), cs.e_alpha_family(0.5, theta)),
    ]
    rs = 10.0 ** rng.uniform(-1, 1, size=100)
    angles = rng.uniform(-theta * 0.9, theta * 0.9, size=100)
    side = rng.choice([0.0, math.pi], size=100)
    pts = rs * np.exp(1j * (angles + side))
    for f in builtins:
        assert cs.check_intrinsic(f, pts) <= 1e-6


def test_product_certificates_multiply():
    e = cs.regularizer()
    prod = cs.product_function(e, e)
    assert prod.decay.alpha == 2.0
    assert prod.decay.c_alpha == pytest.approx(e.decay.c_alpha ** 2)
    z = _sample_points(prod.theta, 500)
    vals = np.abs(prod.eval_complex(z))
    r = np.abs(z)
    a, c = prod.decay.alpha, prod.decay.c_alpha
    assert np.all(vals <= c * r ** a / (1 + r ** (2 * a)) * (1 + 1e-12))


def test_product_certificates_come_from_one_rule():
    # a factor with neither certificate voids both of the product's: |5 / (1 + s^2)|
    # reaches 5 as s -> 0, above the sup norm 1 of the constant before it
    one = cs.constant_function(1.0)
    prod = cs.product_function(one, cs.rational_function([5.0], [1.0, 0.0, 1.0]))
    assert prod.decay is None and prod.bounded is None
    assert ensure_bounded(prod).bounded.sup_norm == 5.0
    # a bounded factor without decay brings its sup norm to the constant
    e = cs.regularizer()
    two = cs.constant_function(-2.0)
    prod = cs.product_function(e, two, e)
    assert prod.decay == cs.DecayCertificate(2.0, e.decay.c_alpha * 2.0 * e.decay.c_alpha)
    assert prod.bounded is None
    assert cs.product_function(one, two).decay is None
    assert cs.product_function(one, two).bounded == cs.BoundedCertificate(2.0)


def test_products_scalings_and_sums_of_rationals_are_rationals():
    e = cs.regularizer()
    f = cs.rational_function([1.0, 2.0, 0.0], [1.0, 0.0, 3.0])
    z = _sample_points(e.theta, 100)
    for built, expected, poles in [
        (cs.product_function(e, f), e.eval_complex(z) * f.eval_complex(z),
         [-1j, 1j, -math.sqrt(3.0) * 1j, math.sqrt(3.0) * 1j]),
        (cs.scale_function(f, -2.5), f.eval_complex(-2.5 * z),
         [-math.sqrt(3.0) / 2.5 * 1j, math.sqrt(3.0) / 2.5 * 1j]),
        (cs.sum_function(e, f), e.eval_complex(z) + f.eval_complex(z),
         [-1j, 1j, -math.sqrt(3.0) * 1j, math.sqrt(3.0) * 1j]),
    ]:
        assert built.kind == "rational"
        np.testing.assert_allclose(built.eval_complex(z), expected, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(np.sort_complex(built.params["poles"]), np.sort_complex(poles),
                                   rtol=1e-15)
        # coefficients by one power of two: den's largest in [1, 2)
        assert 1.0 <= np.max(np.abs(built.params["den"])) < 2.0
    # the scaling keeps its certificates' rule, the product combines by its one rule
    assert cs.scale_function(e, -2.5).decay == cs.DecayCertificate(1.0, 2.5 * e.decay.c_alpha)
    assert cs.product_function(e, e).decay == cs.DecayCertificate(2.0, e.decay.c_alpha ** 2)
    # a factor of another kind keeps the product a pointwise one, with the rational's poles
    mixed = cs.product_function(cs.rational_function([1.0], [1.0, -3.0]), cs.e_alpha_family(0.5))
    assert mixed.kind == "product"
    with pytest.raises(cs.CertificationError, match="pole at 3,"):
        cs.certify_bounded(mixed)


def test_a_product_keeps_the_poles_of_its_factors():
    # np.roots of (1 + s^2)^3 moves its poles +-i by 5e-6 rad toward the real
    # axis, into the sector at theta = pi/2 - 2e-6; the product keeps +-i
    theta = math.pi / 2 - 2e-6
    e = cs.regularizer(theta)
    e3 = cs.product_function(e, e, e)
    assert e3.kind == "rational"
    assert sorted(e3.params["poles"].imag) == [-1.0] * 3 + [1.0] * 3
    assert np.all(e3.params["poles"].real == 0.0)
    assert np.isfinite(cs.certify_bounded(e3).sup_norm)


@pytest.mark.parametrize("combine", [cs.product_function, cs.sum_function],
                         ids=["product", "sum"])
def test_a_mixed_product_or_sum_keeps_the_poles_of_its_terms(combine):
    # the sum of 1 / (s - 3) and e_alpha once dropped the pole at 3 and took
    # a sampled sup of 224.1, although the pole lies in the sector
    mixed = combine(cs.rational_function([1.0], [1.0, -3.0]), cs.e_alpha_family(0.5))
    assert mixed.kind != "rational"
    assert mixed.params["poles"].tolist() == [3.0]
    for certify in (cs.certify_bounded, lambda f: cs.certify_decay(f, 0.5)):
        with pytest.raises(cs.CertificationError, match="pole at 3, in the closed double sector"):
            certify(mixed)


_COEFFS = st.lists(st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6),
                   min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(num=_COEFFS, den=_COEFFS.filter(any),
       r=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       phi=st.just(0.0) | st.floats(1e-6, math.pi) | st.floats(-math.pi, -1e-6))
def test_a_rational_keeps_the_values_of_its_given_coefficients(num, den, r, phi):
    # the coefficients are normalized by a power of two, so that num / den
    # is the ratio of the given polynomials bit for bit where that is finite
    # (and where z has no subnormal part, which no scaling keeps exact: a
    # phi of 2.2e-311 moved the last bit of a subnormal imaginary part)
    z = np.asarray(r) * np.exp(1j * phi)
    with np.errstate(all="ignore"):
        expected = np.polyval(num, z) / np.polyval(den, z)
    vals = cs.rational_function(num, den).eval_complex(z)
    ok = np.isfinite(expected)
    assert vals[ok].tobytes() == expected[ok].tobytes()


def test_schwarz_symmetry_of_builtins():
    for f in (cs.regularizer(), cs.e_alpha_family(0.3),
              cs.f_ab_function(cs.regularizer(), 0.5, 2.0)):
        z = 1.1 + 0.3j
        assert complex(f.eval_complex(np.conj(z))) == pytest.approx(
            complex(np.conj(f.eval_complex(z))), rel=1e-12)


def test_registry_roundtrip():
    spec = {"name": "product", "params": {"factors": [
        {"name": "regularizer"},
        {"name": "scaled", "params": {"t": 2.0, "inner": {"name": "regularizer"}}},
    ]}}
    f = cs.resolve_function(spec)
    z = 0.9 + 0.2j
    e = cs.regularizer()
    expected = complex(e.eval_complex(z)) * complex(e.eval_complex(2 * z))
    assert complex(f.eval_complex(z)) == pytest.approx(expected, rel=1e-13)


def test_registry_rational_certification():
    spec = {"name": "rational",
            "params": {"num": [1.0, 0.0], "den": [1.0, 0.0, 1.0],
                       "alpha": 1.0, "bounded": True}}
    f = cs.resolve_function(spec)
    assert f.decay is not None and f.bounded is not None


def test_registry_unknown_name():
    with pytest.raises(cs.ArgumentError):
        cs.resolve_function({"name": "mystery"})


@pytest.mark.parametrize("spec", [1.0, [], {"params": {}}], ids=["float", "list", "no-name"])
def test_registry_refuses_a_spec_that_is_not_an_entry(spec):
    with pytest.raises(cs.SchemaError, match="function spec must be a dict with a 'name' key"):
        cs.resolve_function(spec)


def test_registry_f_ab_entry():
    spec = {"name": "f_ab", "params": {"a": 0.1, "b": 10.0,
                                       "inner": {"name": "regularizer"}}}
    f = cs.resolve_function(spec)
    direct = cs.f_ab_function(cs.regularizer(), 0.1, 10.0)
    z = 1.2 + 0.3j
    assert complex(f.eval_complex(z)) == pytest.approx(
        complex(direct.eval_complex(z)), rel=1e-12)


def test_algebra_dimension_cap():
    with pytest.raises(cs.ArgumentError):
        cs.CliffordNum.scalar(7, 1.0)
    with pytest.raises(cs.ArgumentError):
        cs.CliffordNum.basis(2, 4)


@pytest.mark.parametrize("spec", [
    {"name": "regularizer"},
    {"name": "e_alpha", "params": {"alpha": 0.5}},
    {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                    "den": [1.0, 0.0, 2.0, 0.0, 1.0]}},
    {"name": "scaled", "params": {"t": -2.5, "inner": {"name": "regularizer"}}},
    {"name": "f_ab", "params": {"a": 0.1, "b": 10.0, "inner": {"name": "regularizer"}}},
    {"name": "product", "params": {"factors": [{"name": "regularizer"},
                                               {"name": "e_alpha",
                                                "params": {"alpha": 0.5}}]}},
], ids=["regularizer", "e_alpha", "rational", "scaled", "f_ab", "product"])
def test_registry_profiles_are_conjugate_symmetric(spec):
    # the contour engine pairs every node with its conjugate on this symmetry
    f = cs.resolve_function(spec)
    z = _sample_points(f.theta, 300)
    np.testing.assert_allclose(f.eval_complex(np.conj(z)), np.conj(f.eval_complex(z)),
                               rtol=1e-14, atol=0.0)


def test_arctan_tails_keep_tails_below_the_rounding_of_pi_over_2():
    # alpha = 2, t = 2.5e-4 on the default window [e^-30, e^30]: both tails
    # are below the rounding of pi/2, so atan(a^2) + pi/2 - atan(b^2) is 0
    alpha, t = 2.0, 2.5e-4
    a, b = t * math.exp(-30.0), t * math.exp(30.0)
    assert math.atan(a ** alpha) + math.pi / 2 - math.atan(b ** alpha) == 0.0
    tails = arctan_tails(a, b, alpha)
    assert tails == pytest.approx(a ** alpha + b ** -alpha, rel=1e-15)
    assert tails > 1e-19
    cert = cs.DecayCertificate(alpha, 1.0)
    assert cs.f_ab_tail_bound(cert, a, b) == 2.0 / alpha * tails
    T = cs.CliffordOperator.from_real_matrix([[1.0]], n=1)
    eng = cs.ContourEngine(T, cs.check_bisectorial(T, 0.2), 0.6, cs.ContourConfig(nodes=16))
    assert eng.truncation_bound(cert, t) == pytest.approx(
        2.0 * eng.c_phi * tails / (math.pi * alpha), rel=1e-15)
    # where the complement form is accurate, the two forms agree
    for a, b, alpha in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)):
        if b >= a:
            old = math.atan(a ** alpha) + math.pi / 2 - math.atan(b ** alpha)
            assert abs(arctan_tails(a, b, alpha) - old) <= 1e-15 * old


def test_gauss_legendre_nodes_are_computed_once_per_count(monkeypatch):
    # the cell rule and the panels read one cached, read-only copy of
    # leggauss, bit for bit what numpy gives
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(points):
        calls.append(points)
        return leggauss(points)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quadrature._leggauss.cache_clear()
    try:
        for _ in range(3):
            s, w, _ = quadrature.gl_cell_rule(7, np.array([0.25, 0.5]))
            gl_panel_grid(-2.0, 3.0, points=7)
        assert calls == [7]
        x, wx = quadrature._leggauss(7)
        assert not (x.flags.writeable or wx.flags.writeable)
        want_x, want_w = leggauss(7)
        assert np.array_equal(x, want_x) and np.array_equal(wx, want_w)
        assert np.array_equal(s, 0.5 * (want_x + 1.0)) and np.array_equal(w, 0.5 * want_w)
    finally:
        quadrature._leggauss.cache_clear()


def test_the_cell_rule_forms_its_vandermonde_once_per_count(monkeypatch):
    # gl_cell_rule reads one cached, read-only Legendre Vandermonde at its
    # nodes per count, and gl_panel_grid none; the weights and panels are
    # bit for bit those of a fresh Vandermonde and of the cell rule at 0
    legvander = np.polynomial.legendre.legvander
    degrees = []

    def counting(x, deg):
        degrees.append(deg)
        return legvander(x, deg)

    monkeypatch.setattr(np.polynomial.legendre, "legvander", counting)
    quadrature._legvander.cache_clear()
    fractions = np.array([0.0, 0.25, 1.0])
    try:
        for _ in range(3):
            s, w, parts = quadrature.gl_cell_rule(9, fractions)
            u, wu = gl_panel_grid(-2.0, 3.0, points=9)
        # at the nodes (degree 8) once, at the fractions (degree 9) per call
        assert sorted(degrees) == [8, 9, 9, 9]
        assert not quadrature._legvander(9).flags.writeable
    finally:
        quadrature._legvander.cache_clear()
    x, wx = np.polynomial.legendre.leggauss(9)
    end = 2.0 * fractions - 1.0
    at_end = legvander(end, 9)
    integrals = np.concatenate([0.5 * (end[:, None] + 1.0), 0.5 * (at_end[:, 2:] - at_end[:, :-2])],
                               axis=-1)
    assert np.array_equal(parts, 0.5 * wx * (integrals @ legvander(x, 8).T))
    edges = np.linspace(-2.0, 3.0, 11)
    width = np.diff(edges)[:, None]
    assert np.array_equal(u, (edges[:-1, None] + width * s).ravel())
    assert np.array_equal(wu, (width * w).ravel())
