import math
import tracemalloc

import numpy as np
import pytest

import cliffspec as cs

from cliffspec import calculus
from cliffspec.functions import ensure_bounded

from conftest import (
    OMEGA,
    THETA,
    contour_report,
    four_ray_sum,
    non_normal_operator,
    self_adjoint_operator,
    unit_e12,
)


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
    rep = contour_report(T)
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
    rep = contour_report(T, 1.0, 1.35, cs.ContourConfig(phi=1.2))
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
    e_alpha = cs.e_alpha_family(0.5)
    for f in (e_alpha, cs.product_function(cs.regularizer(), e_alpha)):
        with pytest.raises(cs.ArgumentError, match="needs a rational function"):
            cs.rational_calculus(f, T)


def test_rational_calculus_reaches_every_rational_default(reports):
    # products and scalings of rationals are rationals: every default g, the
    # rational default f and e f for each, with e the regularizer
    T, _ = reports["jordan"]
    e = cs.regularizer(THETA)
    fs = [cs.resolve_function(spec, THETA) for spec in cs.default_f_specs()]
    gs = [cs.resolve_function(spec, THETA) for spec in cs.default_g_specs()]
    rational_fs = [f for f in fs if f.kind == "rational"]
    assert len(rational_fs) == 3
    for f in gs + rational_fs + [cs.product_function(e, f) for f in rational_fs]:
        assert np.all(np.isfinite(cs.rho_matrix(cs.rational_calculus(f, T))))
    # e times the constant 1 at the Jordan block of 1: e(1) I + e'(1) N, e'(1) = 0
    ef = cs.rho_matrix(cs.rational_calculus(cs.product_function(e, rational_fs[0]), T))
    np.testing.assert_allclose(ef, 0.5 * np.eye(4), rtol=0.0, atol=1e-15)


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


@pytest.mark.parametrize("fault", ["singular", "non-finite"])
def test_engine_refuses_a_singular_or_non_finite_pseudo_resolvent(monkeypatch, reports, fault):
    # on the dense path (the Jordan block has no eigenbasis) P = Q_s^-1 is
    # refused with the node where it fails: the contour angle where Q_s is
    # singular, the (u, sign) of the first node where P is not finite
    T, rep = reports["jordan"]
    ref = cs.ContourEngine(T, rep, THETA)
    k = ref.u_ray.size + 5                     # the sixth node of the - ray
    inverse = calculus.q_inverse_stack

    def q_inverse(bt, s0, abs2):
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        p = inverse(bt, s0, abs2)
        p[k:] = np.nan
        return p
    monkeypatch.setattr(calculus, "q_inverse_stack", q_inverse)
    with pytest.raises(cs.NumericalFailureError) as err:
        cs.ContourEngine(T, rep, THETA)
    if fault == "singular":
        assert "pseudo-resolvent singular on the contour" in str(err.value)
        assert err.value.node == {"phi": ref.phi}
    else:
        assert "non-finite resolvent value on the contour" in str(err.value)
        assert err.value.node == {"u": float(ref.u[k]), "sign": -1.0}


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
        cs.ContourConfig(u_max=cs.ContourConfig.u_min)
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
        {"name": "product", "params": {"factors": [{"name": "regularizer"}] * 2}},
        {"name": "scaled", "params": {"t": -2.5, "inner": {"name": "regularizer"}}},
    ]
    for key in ("diag12", "diag1m2", "jordan"):
        T, rep = reports[key]
        for spec in specs:
            f = cs.resolve_function(spec, theta=THETA)
            res = cs.omega_calculus(f, T, rep)
            gap = op_gap(res.op, cs.rational_calculus(f, T))
            assert gap <= max(1e-6, combined(res))


@pytest.mark.parametrize("phi", [0.3, math.pi / 6, 0.75], ids=["0.3", "pi-6", "0.75"])
@pytest.mark.parametrize("rows", [
    [[1.0, 1.0], [0.0, -2.0]], [[1.0, 3.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, -2.0]],
], ids=["non-normal", "non-normal-3", "self-adjoint"])
def test_claims_at_phi_cover_the_oracle(rows, phi):
    # certified at the contour's angles only, the claimed error still covers
    # the gap to the direct evaluation, on the dense and the eigen path
    # (at 0.3 the sample of [[1, 3], [0, -2]] is 4.79, against 3.06 at the
    # first default angle, 0.480)
    T = cs.CliffordOperator.from_real_matrix(rows, n=1)
    rep = contour_report(T, cfg=cs.ContourConfig(phi=phi), phis=())
    e = cs.regularizer(THETA)
    res = cs.omega_calculus(e, T, rep, cs.ContourConfig(phi=phi))
    assert op_gap(res.op, cs.rational_calculus(e, T)) <= res.combined_error


def test_adjoint_check_certifies_the_adjoint_at_the_angles_of_the_report(monkeypatch):
    # T's report holds the contour's angles at phi = 0.3 only, below every
    # default angle; T* is certified at them too, so the check runs wherever
    # T's report runs
    T = cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1)
    cfg = cs.ContourConfig(phi=0.3)
    rep = contour_report(T, cfg=cfg, phis=())
    sampled = []
    certify = cs.check_bisectorial

    def recording(T, omega, sampling=cs.RaySampling()):
        sampled.append(sampling.resolved_phis(omega))
        return certify(T, omega, sampling)

    monkeypatch.setattr(cs.calculus, "check_bisectorial", recording)
    f = cs.resolve_function({"name": "rational", "params": {
        "num": [1.0, 0.0, 0.0], "den": [1.0, 0.0, 1.0], "bounded": True}}, theta=THETA)
    gap = cs.adjoint_calculus_check(f, T, rep, cfg)
    assert sampled == [cfg.contour_angles(OMEGA, THETA)]
    assert gap <= 1e-6


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
    eng = cs.ContourEngine(T, contour_report(T), THETA, cs.ContourConfig(nodes=64))
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


def _traced(call):
    """(result, memory still held, peak) of ``call()`` under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_an_engine_of_at_most_32_columns_keeps_no_kernels():
    # the eigen path of A + A* at n = 3, m = 8 (D = 64): P is (nodes, 2, 16),
    # 32 columns, and the engine keeps it and vectors over the nodes, no
    # kernels fa P, fb P (4 times P) beside it
    T = self_adjoint_operator(np.random.default_rng(5), 3, 8)
    report = cs.check_bisectorial(T, OMEGA)
    engine, kept, _ = _traced(lambda: cs.ContourEngine(T, report, THETA))
    assert engine.basis is not None and engine.P.shape[1:] == (2, 16)
    assert kept <= engine.P.nbytes + 2 ** 20


def test_a_single_value_on_a_dense_engine_forms_no_kernel_block():
    # P of 4 x 4 blocks at n = 3 (D = 16) has 64 real columns; one value is
    # one product of its profile rows with P, where a block of kernels of 32
    # columns alone would take 2 MB
    T = non_normal_operator(np.random.default_rng(0), 3)
    engine = cs.ContourEngine(T, contour_report(T), THETA)
    f = cs.regularizer(THETA)
    engine.evaluate(f)
    (mat, _, _), _, peak = _traced(lambda: engine.evaluate(f))
    assert engine.basis is None and engine.P.shape[1:] == (2, 4, 4)
    assert np.allclose(mat, cs.rho_matrix(cs.rational_calculus(f, T)), atol=1e-8)
    assert peak < 2 ** 20


def test_f_ab_operator_contracts_both_rules_at_once(monkeypatch, reports):
    T, rep = reports["diag12"]
    calls = []
    contract = calculus.ContourEngine._contract

    def counting(self, parts, *args):
        calls.append(parts[0].shape)
        return contract(self, parts, *args)

    monkeypatch.setattr(calculus.ContourEngine, "_contract", counting)
    cs.f_ab_operator(cs.regularizer(THETA), 0.1, 10.0, T, rep)
    # the 12-point values of both rays in one call, with no second rule
    assert len(calls) == 1 and calls[0][:2] == (2, 1)


def test_truncation_bounds_of_an_array_are_those_of_its_entries(reports):
    T, rep = reports["diag12"]
    engine = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=16))
    decay = cs.regularizer(THETA).decay
    ts = [1e-300, -1e-3, 0.5, 2.0, -7e4, 1e300]
    # the bound of each t in Python floats, where 1e300 e^30 is inf
    alpha, cfg = decay.alpha, engine.cfg
    want = [2.0 * engine.c_phi * decay.c_alpha / (math.pi * alpha) * (
        math.atan((abs(t) * math.exp(cfg.u_min)) ** alpha)
        + math.atan2(1.0, (abs(t) * math.exp(cfg.u_max)) ** alpha)) for t in ts]
    np.testing.assert_allclose(engine.truncation_bound(decay, np.array(ts)), want,
                               rtol=1e-15, atol=0.0)
    # a power beyond the doubles gives the exact limit, not an overflow
    assert cs.functions.arctan_tails(1.0, 1e300, 2.0) == math.atan(1.0)


@pytest.mark.parametrize("case", ["diag1m2", "jordan", "non-normal-R2"])
def test_hinf_operators_agree_with_each_f_on_its_own(case, reports):
    # the batch of every default f and g against hinf_calculus one at a
    # time, on the eigen path (diag(1, -2)) and the dense path
    if case == "non-normal-R2":
        T = non_normal_operator(np.random.default_rng(0), 2)
        rep = contour_report(T)
    else:
        T, rep = reports[case]
    eng = cs.ContourEngine(T, rep, THETA)
    assert (eng.basis is not None) == (case == "diag1m2")
    fs = [ensure_bounded(cs.resolve_function(s, THETA))
          for s in cs.default_f_specs() + cs.default_g_specs()]
    batch = calculus.hinf_operators(fs, T, rep, engine=eng)
    assert len(batch) == len(fs)
    for f, res in zip(fs, batch):
        alone = cs.hinf_calculus(f, T, rep, engine=eng)
        assert op_gap(res.op, alone.op) <= res.combined_error
        scale = np.abs(alone.op.coeffs).max()
        assert np.abs(res.op.coeffs - alone.op.coeffs).max() <= 1e-13 * scale
        assert res.truncation_error == alone.truncation_error
        assert res.discretization_error == pytest.approx(alone.discretization_error, rel=1e-12)


def test_an_infinite_decay_constant_is_refused_before_any_profile(reports, monkeypatch):
    # C_alpha = inf makes the truncation claim inf or nan at every t: the
    # family, the f_ab rungs and the hinf batch refuse it unprofiled
    T, rep = reports["diag12"]
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=64))
    e = cs.regularizer(THETA)
    inf = e.with_decay(cs.DecayCertificate(1.0, math.inf))

    def profiled(*_):
        raise AssertionError("profiled a function whose claim is refused")

    monkeypatch.setattr(calculus.ContourEngine, "_windows", profiled)
    monkeypatch.setattr(calculus, "f_ab_nodes", profiled)
    monkeypatch.setattr(calculus, "product_function", lambda *_: inf)
    for call in (lambda: eng.evaluate_family(inf, [0.5, 2.0]),
                 lambda: calculus.f_ab_operators(inf, [(0.1, 10.0)], T, rep, engine=eng),
                 lambda: calculus.hinf_operators([ensure_bounded(e)], T, rep, engine=eng)):
        with pytest.raises(cs.NumericalFailureError, match="claimed error is not finite"):
            call()


def test_a_function_whose_sector_misses_the_contour_is_refused_unprofiled(reports):
    # the engine's contour runs at phi = (OMEGA + THETA) / 2 = pi/6, outside
    # the sector of half-angle 0.3: the family, the f_ab rungs and the hinf
    # batch refuse it before its profile is called
    T, rep = reports["jordan"]
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=64))
    assert eng.phi == pytest.approx(math.pi / 6)
    narrow = ensure_bounded(cs.regularizer(0.3))

    def profiled(_):
        raise AssertionError("profiled a function off its sector")

    f = cs.IntrinsicFunction(profiled, 0.3, decay=narrow.decay, bounded=narrow.bounded)
    for call in (lambda: eng.evaluate_family(f, [0.5, 2.0]),
                 lambda: calculus.f_ab_operators(f, [(0.1, 10.0)], T, rep, engine=eng),
                 lambda: calculus.hinf_operators([f], T, rep, engine=eng)):
        with pytest.raises(cs.ArgumentError, match="phi=0.523599 lies outside the sector"):
            call()


def test_a_non_finite_f_ab_sample_names_its_node(reports):
    # the ladder samples through the engine: a NaN at one sample of the
    # profile is refused at that sample's u, not left to reach the sums
    T, rep = reports["diag1m2"]
    eng = cs.ContourEngine(T, rep, THETA, cs.ContourConfig(nodes=64))
    e, poisoned = cs.regularizer(THETA), []

    def profile(z):
        out = e.eval_complex(z)
        if z.ndim == 3 and not poisoned:
            poisoned.append(z[0, 40, 3])
            out[0, 40, 3] = np.nan
        return out

    f = cs.IntrinsicFunction(profile, THETA, decay=e.decay)
    with pytest.raises(cs.NumericalFailureError) as err:
        calculus.f_ab_operators(f, [(0.1, 10.0)], T, rep, engine=eng)
    assert err.value.node["u"] == pytest.approx(math.log(abs(poisoned[0])), abs=1e-12)


def test_engine_roundoff_keeps_the_norm_of_a_tiny_operator():
    # ||T|| = 2e-300 squares to 0 in A^H A; read off 2^-e T, the T beta P
    # term of the roundoff bound keeps it
    T = cs.CliffordOperator.from_real_matrix([[1e-300, 0.0], [0.0, -2e-300]], n=1)
    phi = 0.5 * (OMEGA + THETA)
    bisector = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=(phi, THETA)))
    engine = cs.ContourEngine(T, bisector, THETA, cs.ContourConfig(nodes=500))
    assert engine._k_fro[1].max() > 0.0
