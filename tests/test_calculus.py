import math

import numpy as np
import pytest

import cliffspec as cs

from conftest import OMEGA, THETA, four_ray_sum, non_normal_operator, unit_e12


def combined(*results, floor=1e-9):
    return cs.combined_tolerance(*results, floor=floor)


def op_gap(a, b):
    return float(np.linalg.svd(cs.rho_matrix(a) - cs.rho_matrix(b), compute_uv=False)[0])


def test_omega_calculus_matches_rational_oracle(reports):
    e = cs.regularizer(THETA)
    for key in ("diag12", "diag1m2", "jordan"):
        T, rep = reports[key]
        res = cs.omega_calculus(e, T, rep)
        oracle = cs.rational_calculus(e, T)
        assert op_gap(res.op, oracle) <= max(1e-6, combined(res))


def test_omega_calculus_diag_values(reports):
    T, rep = reports["diag12"]
    res = cs.omega_calculus(cs.regularizer(THETA), T, rep)
    assert np.allclose(cs.rho_matrix(res.op), np.diag([0.5, 0.5, 0.4, 0.4]), atol=1e-6)


def test_jordan_block_oracle(reports):
    # nilpotent part: h(J2) = h(1) I + h'(1) N for h(x) = x/(1+x^2)
    T, rep = reports["jordan"]
    res = cs.omega_calculus(cs.regularizer(THETA), T, rep)
    expected = np.kron(np.array([[0.5, 0.0], [0.0, 0.5]]), np.eye(2))
    assert np.allclose(cs.rho_matrix(res.op), expected, atol=1e-6)


def test_j_independence(rng):
    # the engine takes no slice: its f(T) for a Clifford-valued non-normal T
    # is the explicit four-ray sum in the slice J = (e_1 + e_2)/sqrt 2
    T = non_normal_operator(rng, 3)
    rep = cs.check_bisectorial(T, OMEGA)
    e = cs.regularizer(THETA)
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=64))
    res = cs.omega_calculus(e, T, rep, engine=eng)
    expected = four_ray_sum(e, T, eng, [1.0], unit_e12(3), nodes=65)[0]
    gap = np.abs(cs.rho_matrix(res.op) - expected).max()
    assert gap <= 1e-12 * max(1.0, np.abs(expected).max())


def test_phi_independence(reports):
    T, rep = reports["diag1m2"]
    e = cs.regularizer(THETA)
    r1 = cs.omega_calculus(e, T, rep, cs.ContourConfig(phi=0.45))
    r2 = cs.omega_calculus(e, T, rep, cs.ContourConfig(phi=0.70))
    assert op_gap(r1.op, r2.op) <= combined(r1, r2)


def test_multiplication_operator_oracle():
    # for T = left multiplication by a paravector s, f(T) is left
    # multiplication by f(s); exercises the noncommutative wiring
    s = cs.Paravector(1.0, np.array([1.0]))
    T = cs.CliffordOperator.scalar_mul(s, 1)
    rep = cs.check_bisectorial(T, 1.0)
    f = cs.regularizer(theta=1.35)
    res = cs.omega_calculus(f, T, rep, cs.ContourConfig(phi=1.2))
    expected = cs.eval_intrinsic(f, s).left_matrix()
    assert np.allclose(cs.rho_matrix(res.op), expected, atol=1e-8)


def test_rational_calculus_values(reports):
    T, _ = reports["diag12"]
    e = cs.regularizer(THETA)
    out = cs.rational_calculus(e, T)
    assert np.allclose(cs.rho_matrix(out), np.diag([0.5, 0.5, 0.4, 0.4]), atol=1e-14)


def test_rational_calculus_partial_fraction_identity(reports):
    # (1+a^2 T^2)^{-1} - (1+b^2 T^2)^{-1} = (b^2-a^2) T^2 (1+a^2T^2)^{-1} (1+b^2T^2)^{-1}
    T, _ = reports["diag1m2"]
    a, b = 0.3, 2.0
    inv_a = cs.rational_calculus(cs.rational_function([1.0], [a * a, 0.0, 1.0]), T)
    inv_b = cs.rational_calculus(cs.rational_function([1.0], [b * b, 0.0, 1.0]), T)
    lhs = cs.rho_matrix(inv_a) - cs.rho_matrix(inv_b)
    prod = cs.rational_calculus(cs.rational_function(
        [(b * b - a * a), 0.0, 0.0], np.polymul([a * a, 0.0, 1.0], [b * b, 0.0, 1.0])), T)
    assert np.allclose(lhs, cs.rho_matrix(prod), atol=1e-12)


def test_rational_calculus_pole_on_spectrum(reports):
    T, _ = reports["diag12"]
    f = cs.rational_function([1.0], [1.0, -1.0])  # 1/(s-1)
    with pytest.raises(cs.NotInvertibleError):
        cs.rational_calculus(f, T)


def test_rational_calculus_rejects_non_rational(reports):
    T, _ = reports["diag12"]
    with pytest.raises(cs.ArgumentError):
        cs.rational_calculus(cs.e_alpha_family(0.5), T)


def test_hinf_constant_is_identity(reports):
    one = cs.constant_function(1.0, THETA)
    for key in ("diag12", "diag1m2", "jordan"):
        T, rep = reports[key]
        res = cs.hinf_calculus(one, T, rep)
        assert np.allclose(cs.rho_matrix(res.op), np.eye(4), atol=1e-6)


def test_hinf_consistent_with_omega_on_decay_class(reports):
    T, rep = reports["diag1m2"]
    e = cs.regularizer(THETA)
    e2 = cs.product_function(e, e).with_bounded(
        cs.certify_bounded(cs.product_function(e, e)))
    r_omega = cs.omega_calculus(e2, T, rep)
    r_hinf = cs.hinf_calculus(e2, T, rep)
    assert op_gap(r_omega.op, r_hinf.op) <= combined(r_omega, r_hinf, floor=1e-8)


def test_hinf_rational_value(reports):
    T, rep = reports["diag12"]
    f = cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA)
    f = f.with_bounded(cs.certify_bounded(f))
    res = cs.hinf_calculus(f, T, rep)
    assert np.allclose(cs.rho_matrix(res.op), np.diag([0.5, 0.5, 0.8, 0.8]), atol=1e-6)


def test_hinf_requires_bounded_certificate(reports):
    T, rep = reports["diag12"]
    with pytest.raises(cs.PreconditionError):
        cs.hinf_calculus(cs.rational_function([1.0], [1.0]), T, rep)


def test_hinf_requires_injectivity():
    T = cs.CliffordOperator.from_real_matrix([[0.0, 0.0], [0.0, 1.0]], n=1)
    rep = cs.check_bisectorial(T, 0.3)
    with pytest.raises(cs.PreconditionError):
        cs.hinf_calculus(cs.constant_function(1.0, THETA), T, rep)


def test_omega_requires_decay(reports):
    T, rep = reports["diag12"]
    with pytest.raises(cs.PreconditionError):
        cs.omega_calculus(cs.rational_function([1.0], [1.0], THETA), T, rep)


def test_uncertified_operator_refused(e1_id):
    rep = cs.check_bisectorial(e1_id, 0.4)
    with pytest.raises(cs.PreconditionError):
        cs.omega_calculus(cs.regularizer(THETA), e1_id, rep)


def test_scaled_calculus_identity_is_bitwise(reports):
    T, rep = reports["diag1m2"]
    e = cs.regularizer(THETA)
    base = cs.omega_calculus(e, T, rep)
    scaled = cs.scaled_calculus(e, 1.0, T, rep)
    assert np.array_equal(cs.rho_matrix(base.op), cs.rho_matrix(scaled.op))


def test_scaled_calculus_values(reports):
    T, rep = reports["diag12"]
    res = cs.scaled_calculus(cs.regularizer(THETA), 2.0, T, rep)
    assert np.allclose(cs.rho_matrix(res.op),
                       np.diag([2 / 5, 2 / 5, 4 / 17, 4 / 17]), atol=1e-6)


def test_scaled_calculus_consistent_with_operator_scaling(rng, reports):
    # the resolvent scaling identity makes f(tT) equal the calculus of tT
    T, rep = reports["diag12"]
    e = cs.regularizer(THETA)
    for _ in range(3):
        t = float(rng.uniform(0.3, 3.0))
        tT = cs.CliffordOperator(1, 2, t * T.coeffs)
        rep_t = cs.check_bisectorial(tT, OMEGA)
        r1 = cs.scaled_calculus(e, t, T, rep)
        r2 = cs.omega_calculus(e, tT, rep_t)
        assert op_gap(r1.op, r2.op) <= combined(r1, r2)


def test_scaled_calculus_rejects_zero(reports):
    T, rep = reports["diag12"]
    with pytest.raises(cs.ArgumentError):
        cs.scaled_calculus(cs.regularizer(THETA), 0.0, T, rep)


def test_f_ab_two_path_agreement(reports):
    T, rep = reports["diag12"]
    e = cs.regularizer(THETA)
    direct = cs.f_ab_operator(e, 0.1, 10.0, T, rep)
    via_function = cs.omega_calculus(cs.f_ab_function(e, 0.1, 10.0), T, rep)
    assert op_gap(direct.op, via_function.op) <= max(1e-5, combined(direct, via_function))


def test_f_ab_operator_converges(reports):
    # test_acceptance.py criterion 07 checks the full operator on the shared engine.
    T, rep = reports["diag12"]
    e = cs.regularizer(THETA)
    target = cs.f0_infty(e)
    devs = []
    for k in range(1, 5):
        res = cs.f_ab_operator(e, 10.0 ** -k, 10.0 ** k, T, rep)
        devs.append(op_gap(res.op, cs.CliffordOperator.from_real_matrix(
            target * np.eye(2), n=1)))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # per-eigenvalue closed form: max over lam of 2 atan(a lam) + 2 atan(1/(b lam))
    for k, dev in enumerate(devs, start=1):
        a, b = 10.0 ** -k, 10.0 ** k
        exact = max(2 * math.atan(a * lam) + 2 * math.atan(1 / (b * lam))
                    for lam in (1.0, 2.0))
        assert dev == pytest.approx(exact, rel=1e-4)


def test_f_ab_empty_interval(reports):
    T, rep = reports["diag12"]
    res = cs.f_ab_operator(cs.regularizer(THETA), 3.0, 3.0, T, rep)
    assert np.array_equal(cs.rho_matrix(res.op), np.zeros((4, 4)))


def test_product_rule(rng, reports):
    e = cs.regularizer(THETA)
    pool = [
        e,
        cs.product_function(e, e),
        cs.e_alpha_family(0.5, THETA),
        cs.scale_function(e, 2.0),
        cs.scale_function(e, 0.5),
    ]
    T, rep = reports["diag1m2"]
    idx = rng.integers(0, len(pool), size=(10, 2))
    for i, j in idx:
        f, g = pool[i], pool[j]
        fg = cs.product_function(f, g)
        r_fg = cs.omega_calculus(fg, T, rep)
        r_f = cs.omega_calculus(f, T, rep)
        r_g = cs.omega_calculus(g, T, rep)
        prod = cs.rho_matrix(r_f.op) @ cs.rho_matrix(r_g.op)
        gap = float(np.linalg.svd(cs.rho_matrix(r_fg.op) - prod, compute_uv=False)[0])
        assert gap <= combined(r_fg, r_f, r_g, floor=1e-7)


def test_linearity(reports):
    T, rep = reports["jordan"]
    e = cs.regularizer(THETA)
    g = cs.e_alpha_family(0.5, THETA)
    s = cs.sum_function(e, g).with_decay(cs.certify_decay(cs.sum_function(e, g), 0.5))
    r_sum = cs.omega_calculus(s, T, rep)
    r_e = cs.omega_calculus(e, T, rep)
    r_g = cs.omega_calculus(g, T, rep)
    gap = float(np.linalg.svd(
        cs.rho_matrix(r_sum.op) - cs.rho_matrix(r_e.op) - cs.rho_matrix(r_g.op),
        compute_uv=False)[0])
    assert gap <= combined(r_sum, r_e, r_g, floor=1e-7)


def test_commutation_of_regularized_pair(reports):
    T, rep = reports["jordan"]
    e = cs.regularizer(THETA)
    f = cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA)
    f = f.with_bounded(cs.certify_bounded(f))
    ef = cs.product_function(e, f)
    e_mat = cs.rho_matrix(cs.rational_calculus(e, T))
    ef_mat = cs.rho_matrix(cs.omega_calculus(ef, T, rep).op)
    assert np.allclose(e_mat @ ef_mat, ef_mat @ e_mat, atol=1e-8)


def test_norm_bound_from_certificates(reports):
    # ||f(T)|| <= C_phi * C_alpha / alpha for certified decay f
    e = cs.regularizer(THETA)
    for key in ("diag12", "diag1m2", "jordan"):
        T, rep = reports[key]
        cfg = cs.ContourConfig()
        phi = cfg.resolve_phi(rep.omega, THETA)
        res = cs.omega_calculus(e, T, rep, cfg)
        bound = rep.c_at(phi) * e.decay.c_alpha / e.decay.alpha
        assert cs.operator_norm(res.op) <= bound + combined(res)


def test_adjoint_calculus_check(reports):
    f = cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA)
    f = f.with_bounded(cs.certify_bounded(f))
    T, rep = reports["diag1m2"]
    assert cs.adjoint_calculus_check(f, T, rep) <= 1e-8

    T, rep = reports["jordan"]
    res = cs.hinf_calculus(f, T, rep)
    gap = cs.adjoint_calculus_check(f, T, rep)
    assert gap <= 2 * combined(res, floor=1e-8)

    one = cs.constant_function(1.0, THETA)
    T, rep = reports["diag12"]
    assert cs.adjoint_calculus_check(one, T, rep) <= 1e-10


def test_calculus_result_error_fields(reports):
    T, rep = reports["diag12"]
    res = cs.omega_calculus(cs.regularizer(THETA), T, rep)
    assert res.truncation_error >= 0.0
    assert res.discretization_error >= 0.0
    # doubling the node count moves the result by less than the estimate
    fine = cs.omega_calculus(cs.regularizer(THETA), T, rep,
                             cs.ContourConfig(nodes=4000))
    assert op_gap(res.op, fine.op) <= res.combined_error + fine.combined_error + 1e-12


def test_contour_config_validation():
    with pytest.raises(cs.ArgumentError):
        cs.ContourConfig(nodes=8)
    with pytest.raises(cs.ArgumentError):
        cs.ContourConfig(u_min=3.0, u_max=-3.0)
    with pytest.raises(cs.ArgumentError):
        cs.ContourConfig(phi=2.0).resolve_phi(OMEGA, THETA)


def test_oracle_equivalence_for_registry_rationals(reports):
    # every rational decay-class registry member against the direct evaluation
    specs = [
        {"name": "regularizer"},
        {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                        "den": [1.0, 0.0, 2.0, 0.0, 1.0],
                                        "alpha": 1.0}},
        {"name": "rational", "params": {"num": [1.0, 0.0], "den": [1.0, 0.0, 2.0],
                                        "alpha": 1.0}},
    ]
    for key in ("diag12", "diag1m2", "jordan"):
        T, rep = reports[key]
        for spec in specs:
            f = cs.resolve_function(spec, theta=THETA)
            res = cs.omega_calculus(f, T, rep)
            gap = op_gap(res.op, cs.rational_calculus(f, T))
            assert gap <= max(1e-6, combined(res))


def test_contour_below_sampled_angles_takes_c_phi_from_its_rays():
    # phi = 0.3 lies below every angle the report sampled, so the engine
    # bounds C_phi on its own nodes; a direct sample at 0.3 gives 4.79
    T = cs.CliffordOperator.from_real_matrix([[1.0, 3.0], [0.0, -2.0]], n=1)
    rep = cs.check_bisectorial(T, OMEGA)
    sampled = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=(0.3,))).c_phi_table[0][1]
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(phi=0.3))
    assert eng.c_phi == pytest.approx(sampled, rel=1e-3)
    res = cs.omega_calculus(cs.regularizer(THETA), T, rep, cs.ContourConfig(phi=0.3))
    assert op_gap(res.op, cs.rational_calculus(cs.regularizer(THETA), T)) <= combined(res)


@pytest.mark.parametrize("spec", [
    {"name": "regularizer"},
    {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                    "den": [1.0, 0.0, 2.0, 0.0, 1.0], "alpha": 1.0}},
    {"name": "e_alpha", "params": {"alpha": 0.5}},
], ids=["regularizer", "mixed-parity-rational", "e_alpha-0.5"])
@pytest.mark.parametrize("n, unit", [
    (2, cs.unit_imag(2)), (3, cs.unit_imag(3)), (2, unit_e12(2)), (3, unit_e12(3)),
], ids=["2", "3", "2-slice-e1+e2", "3-slice-e1+e2"])
def test_folded_family_matches_four_ray_sum(rng, n, unit, spec):
    # the explicit sum is taken in the slice e_1 or (e_1 + e_2)/sqrt 2; the
    # engine's folded sum holds no slice and matches both
    T = non_normal_operator(rng, n)
    f = cs.resolve_function(spec, theta=THETA)
    eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA,
                           cs.ContourConfig(nodes=64))
    ts = np.array([0.5, -0.5, 2.0, -3.0])
    mats, _, _ = eng.evaluate_family(f, ts)
    expected = four_ray_sum(f, T, eng, ts, unit, nodes=65)
    assert np.abs(mats - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_non_finite_profile_at_negative_t_names_it():
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    eng = cs.ContourEngine(T, cs.check_bisectorial(T, OMEGA), THETA,
                           cs.ContourConfig(nodes=64))

    def profile(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) > 5.0, np.nan, z / (1.0 + z * z))

    f = cs.IntrinsicFunction(profile, THETA, decay=cs.regularizer(THETA).decay)
    with pytest.raises(cs.NumericalFailureError) as err:
        eng.evaluate_family(f, [-2.0])
    assert err.value.node["t"] == -2.0
    assert 2.0 * math.exp(err.value.node["u"]) > 5.0
