"""Acceptance suite: every quantitative claim at its pinned tolerance.

Each criterion prints one pass/fail line (run pytest with -s to stream
them).  Test operators are desk scale: m <= 8, n <= 3.
"""

import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.quadrature import pairwise_sum

from conftest import (
    OMEGA,
    THETA,
    four_ray_sum,
    non_normal_operator,
    random_clifford,
    random_operator,
    random_paravector,
    random_vector,
    unit_e12,
)

RNG = np.random.default_rng(2024)


def report_line(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {title}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def ctx():
    """Test operators with certificates and shared contour engines."""
    ops = {
        "diag12": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, 2.0]], n=1),
        "diag1m2": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
        "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
    }
    out = {}
    phis = tuple(sorted({THETA} | {OMEGA + k * (math.pi / 2 - OMEGA) / 6 for k in range(1, 6)}))
    for key, T in ops.items():
        rep = cs.check_bisectorial(T, OMEGA, cs.RaySampling(phis=phis))
        eng = cs.ContourEngine(T, rep, THETA)
        t_star = cs.adjoint_operator(T)
        rep_star = cs.check_bisectorial(t_star, OMEGA, cs.RaySampling(phis=phis))
        eng_star = cs.ContourEngine(t_star, rep_star, THETA)
        out[key] = {"T": T, "rep": rep, "eng": eng,
                    "Tstar": t_star, "rep_star": rep_star, "eng_star": eng_star}
    return out


def test_criterion_01_clifford_kernel_exactness():
    worst = 0.0
    for _ in range(1000):
        n = int(RNG.integers(1, 4))
        a, b, c = (random_clifford(RNG, n) for _ in range(3))
        assoc = (a * b) * c - a * (b * c)
        worst = max(worst, assoc.abs() / max(((a * b) * c).abs(), 1.0))
        anti = cs.conjugate(a * b) - cs.conjugate(b) * cs.conjugate(a)
        worst = max(worst, anti.abs() / max((a * b).abs(), 1.0))
        s = random_paravector(RNG, n)
        norm_id = s.to_clifford() * s.conjugate().to_clifford() \
            - cs.CliffordNum.scalar(n, s.abs2())
        worst = max(worst, norm_id.abs() / max(s.abs2(), 1.0))
    ok = worst <= 1e-12
    assert report_line(1, "Clifford kernel exactness", ok, f"worst rel err {worst:.2e}")


def test_criterion_02_module_norms():
    worst_eq = 0.0
    ok_bound = True
    for _ in range(1000):
        n = int(RNG.integers(1, 4))
        m = int(RNG.integers(1, 4))
        v = random_vector(RNG, n, m)
        s = random_paravector(RNG, n)
        sv = cs.scalar_mul_left(s, v)
        worst_eq = max(worst_eq, abs(sv.norm() - s.abs() * v.norm()) / max(sv.norm(), 1.0))
        c = random_clifford(RNG, n)
        cv = cs.scalar_mul_left(c, v)
        ok_bound &= cv.norm() <= 2.0 ** (n / 2.0) * c.abs() * v.norm() * (1 + 1e-12)
    ok = worst_eq <= 1e-12 and ok_bound
    assert report_line(2, "module norm identities", ok, f"worst rel err {worst_eq:.2e}")


def test_criterion_03_real_representation_faithful():
    worst = 0.0
    for _ in range(40):
        n = int(RNG.integers(1, 4))
        m = int(RNG.integers(1, 5))
        S, T = random_operator(RNG, n, m), random_operator(RNG, n, m)
        lhs = cs.rho_matrix(S @ T)
        rhs = cs.rho_matrix(S) @ cs.rho_matrix(T)
        worst = max(worst, np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1.0))
        adj = np.abs(cs.rho_matrix(cs.adjoint_operator(T)) - cs.rho_matrix(T).T).max()
        worst = max(worst, adj)
    ok = worst <= 1e-12
    assert report_line(3, "real representation multiplicative and adjoint-compatible",
                       ok, f"worst {worst:.2e}")


def test_criterion_04_spectrum_scans(ctx):
    T = ctx["diag1m2"]["T"]
    grid = cs.GridSpec(-3.0, 3.0, 0.0, 1.5, 25, 7)
    scan = cs.scan_spectrum_slice(T, grid)
    found = sorted((d.x, d.y) for d in scan.detections)
    step = grid.step()
    ok_diag = (len(found) == 2
               and min(abs(x - 1.0) + y for x, y in found) <= step
               and min(abs(x + 2.0) + y for x, y in found) <= step)

    sphere_op = cs.CliffordOperator(1, 1, np.array([[[0.0, 1.0]]]))
    grid_s = cs.GridSpec(-1.5, 1.5, 0.0, 1.5, 13, 7)
    scan_s = cs.scan_spectrum_slice(sphere_op, grid_s)
    # grid nodes on the sphere locus {x = 0, y = 1}; at least 95% flagged
    locus = [(0.0, 1.0)]
    flagged = sum(any(d.x == x and d.y == y for d in scan_s.detections)
                  for x, y in locus)
    ok_sphere = flagged / len(locus) >= 0.95
    ok_sphere &= all(d.kind == "sphere" for d in scan_s.detections)

    T3 = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=3)
    y = 0.625
    qs = [cs.q_operator(s, T3).coeffs for s in (
        cs.Paravector(0.5, np.array([y, 0.0, 0.0])),
        cs.Paravector(0.5, np.array([0.0, y, 0.0])),
        cs.Paravector(0.5, np.array([0.0, 0.0, -y])),
    )]
    ok_rot = np.array_equal(qs[0], qs[1]) and np.array_equal(qs[0], qs[2])

    ok = ok_diag and ok_sphere and ok_rot
    assert report_line(4, "spectrum scans", ok,
                       f"diag={found}, sphere flag rate {flagged}/{len(locus)}, "
                       f"rotation exact {ok_rot}")


def test_criterion_05_quadrature_vs_rational(ctx):
    e = cs.regularizer(THETA)
    f_sq = cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA)
    f_sq = f_sq.with_bounded(cs.certify_bounded(f_sq))
    worst = 0.0
    for key in ("diag12", "jordan"):
        c = ctx[key]
        res_e = cs.omega_calculus(e, c["T"], c["rep"], engine=c["eng"])
        worst = max(worst, float(np.abs(
            cs.rho_matrix(res_e.op) - cs.rho_matrix(cs.rational_calculus(e, c["T"]))).max()))
        res_f = cs.hinf_calculus(f_sq, c["T"], c["rep"], engine=c["eng"])
        worst = max(worst, float(np.abs(
            cs.rho_matrix(res_f.op) - cs.rho_matrix(cs.rational_calculus(f_sq, c["T"]))).max()))
    ok = worst <= 1e-6

    # J-independence: the engine takes no slice, so its f(T) for a
    # Clifford-valued non-normal T must equal the explicit four-ray sum in
    # the slice J = (e_1 + e_2)/sqrt 2
    T2 = non_normal_operator(np.random.default_rng(5), 2)
    rep2 = cs.check_bisectorial(T2, OMEGA)
    eng2 = cs.ContourEngine(T2, rep2, THETA, cs.ContourConfig(nodes=64))
    rj = cs.omega_calculus(e, T2, rep2, engine=eng2)
    explicit = four_ray_sum(e, T2, eng2, [1.0], unit_e12(2), nodes=65)[0]
    gap_j = float(np.abs(cs.rho_matrix(rj.op) - explicit).max())
    ok_j = gap_j <= 1e-12 * max(1.0, float(np.abs(explicit).max()))

    c = ctx["diag1m2"]
    rp1 = cs.omega_calculus(e, c["T"], c["rep"], cs.ContourConfig(phi=0.45))
    rp2 = cs.omega_calculus(e, c["T"], c["rep"], cs.ContourConfig(phi=0.70))
    gap_p = float(np.linalg.svd(cs.rho_matrix(rp1.op) - cs.rho_matrix(rp2.op),
                                compute_uv=False)[0])
    ok_p = gap_p <= cs.combined_tolerance(rp1, rp2)

    ok = ok and ok_j and ok_p
    assert report_line(5, "quadrature calculus vs rational oracle", ok,
                       f"worst oracle gap {worst:.2e}, J-gap {gap_j:.2e}, phi-gap {gap_p:.2e}")


def test_criterion_06_product_rule_and_hinf(ctx):
    e = cs.regularizer(THETA)
    pool = [e,
            cs.product_function(e, e),
            cs.e_alpha_family(0.5, THETA),
            cs.scale_function(e, 2.0),
            cs.scale_function(e, 0.5)]
    c = ctx["diag1m2"]
    ok_prod = True
    worst = 0.0
    pairs = RNG.integers(0, len(pool), size=(10, 2))
    for i, j in pairs:
        f, g = pool[i], pool[j]
        r_fg = cs.omega_calculus(cs.product_function(f, g), c["T"], c["rep"], engine=c["eng"])
        r_f = cs.omega_calculus(f, c["T"], c["rep"], engine=c["eng"])
        r_g = cs.omega_calculus(g, c["T"], c["rep"], engine=c["eng"])
        gap = float(np.linalg.svd(
            cs.rho_matrix(r_fg.op) - cs.rho_matrix(r_f.op) @ cs.rho_matrix(r_g.op),
            compute_uv=False)[0])
        tol = cs.combined_tolerance(r_fg, r_f, r_g, floor=1e-7)
        worst = max(worst, gap / tol)
        ok_prod &= gap <= tol

    one = cs.constant_function(1.0, THETA)
    res_one = cs.hinf_calculus(one, c["T"], c["rep"], engine=c["eng"])
    gap_one = float(np.abs(cs.rho_matrix(res_one.op) - np.eye(4)).max())
    ok_one = gap_one <= 1e-6

    e2 = cs.product_function(e, e)
    e2 = e2.with_bounded(cs.certify_bounded(e2))
    r_omega = cs.omega_calculus(e2, c["T"], c["rep"], engine=c["eng"])
    r_hinf = cs.hinf_calculus(e2, c["T"], c["rep"], engine=c["eng"])
    gap_h = float(np.linalg.svd(cs.rho_matrix(r_omega.op) - cs.rho_matrix(r_hinf.op),
                                compute_uv=False)[0])
    ok_h = gap_h <= cs.combined_tolerance(r_omega, r_hinf, floor=1e-8)

    ok = ok_prod and ok_one and ok_h
    assert report_line(6, "product rule and two-step consistency", ok,
                       f"worst pair ratio {worst:.2f}, |1(T)-Id| {gap_one:.2e}, "
                       f"two-path gap {gap_h:.2e}")


def test_criterion_07_parameter_truncation_convergence(ctx):
    # test_calculus.py::test_f_ab_operator_converges checks the same closed
    # form on deviation norms only, without the shared engine.
    e = cs.regularizer(THETA)
    val = cs.f0_infty(e)
    ok_pi = abs(val - math.pi) <= 1e-8

    c = ctx["diag12"]
    lams = (1.0, 2.0)
    devs, rungs = [], []
    ok_oracle = ok_tail = True
    for k in range(1, 6):
        a, b = 10.0 ** -k, 10.0 ** k
        res = cs.f_ab_operator(e, a, b, c["T"], c["rep"], engine=c["eng"])
        got = cs.rho_matrix(res.op)
        # f_ab(lam) = 2 (atan(b lam) - atan(a lam)) for e(s) = s / (1 + s^2)
        dev_exact = [2 * math.atan(a * lam) + 2 * math.atan(1 / (b * lam)) for lam in lams]
        exact = np.kron(np.diag([math.pi - d for d in dev_exact]), np.eye(2))
        dev = float(np.linalg.svd(got - math.pi * np.eye(4), compute_uv=False)[0])
        gap = float(np.linalg.svd(got - exact, compute_uv=False)[0])
        tail = max(cs.f_ab_tail_bound(e.decay, a, b, scale=lam) for lam in lams)
        ok_oracle &= gap <= res.combined_error + 1e-12
        ok_tail &= dev <= tail
        devs.append(dev)
        rungs.append(f"k={k}: dev {dev:.6e} closed {max(dev_exact):.6e} "
                     f"gap {gap:.1e} err {res.combined_error:.1e}")
    ok_dec = all(b < a for a, b in zip(devs, devs[1:]))
    ok_final = devs[-1] <= 1e-4
    ok = ok_pi and ok_dec and ok_oracle and ok_tail and ok_final
    assert report_line(
        7, "parameter-truncation convergence", ok,
        f"f0(e)-pi={val - math.pi:.2e}; " + "; ".join(rungs)
        + f"; final {devs[-1]:.3e} vs 1e-4 at (a,b)=(1e-5,1e5)")


def _composition_quantities(ctx_entry, e, c_theta):
    """lhs maxima of the three composition bounds for f = g = e."""
    eng = ctx_entry["eng"]
    alpha, c_alpha = e.decay.alpha, e.decay.c_alpha
    sup_e = e.bounded.sup_norm

    ts = 10.0 ** RNG.uniform(-3, 3, size=(25, 2)) * RNG.choice([-1.0, 1.0], size=(25, 2))
    m_t, _, _ = eng.evaluate_family(e, ts[:, 0])
    m_tau, _, _ = eng.evaluate_family(e, ts[:, 1])
    prods = np.einsum("kab,kbc->kac", m_t, m_tau)
    lhs_i = float(np.max(np.linalg.svd(prods, compute_uv=False)[:, 0]))
    rhs_i = c_theta * c_alpha / alpha * sup_e

    qcfg = cs.default_quad_grid(ctx_entry["T"])
    t_grid, w_grid = qcfg.grid()
    fam, _, _ = eng.evaluate_family(e, t_grid)
    lhs_ii = 0.0
    for tau in 10.0 ** RNG.uniform(-2, 2, size=5) * RNG.choice([-1.0, 1.0], size=5):
        m_one, _, _ = eng.evaluate_family(e, [tau])
        norms = np.linalg.svd(fam @ m_one[0], compute_uv=False)[:, 0]
        lhs_ii = max(lhs_ii, float(pairwise_sum(w_grid * norms)))
    rhs_ii = c_theta * c_alpha * c_alpha * math.pi / (2.0 * alpha * alpha)

    n3 = 120
    center = math.sqrt(qcfg.t_min * qcfg.t_max)
    u = np.linspace(math.log(center) - 3 * math.log(10.0),
                    math.log(center) + 3 * math.log(10.0), n3)
    w3 = np.full(n3, u[1] - u[0])
    w3[0] = w3[-1] = 0.5 * (u[1] - u[0])
    t3 = np.concatenate([np.exp(u), -np.exp(u)])
    w3 = np.concatenate([w3, w3])
    fam3, _, _ = eng.evaluate_family(e, t3)
    d = fam3.shape[-1]
    norms = np.linalg.svd(
        np.einsum("kab,lbc->klac", fam3, fam3).reshape(-1, d, d),
        compute_uv=False)[:, 0].reshape(2 * n3, 2 * n3)
    lo, hi = sorted(10.0 ** RNG.uniform(-2, 2, size=2))
    hi = max(hi, 10.0 * lo)
    psi = np.where((np.abs(t3) >= lo * center) & (np.abs(t3) <= hi * center), 1.0, 0.0)
    inner_t = norms.T @ (w3 * psi)
    lhs_iii = float(pairwise_sum(w3 * inner_t ** 2))
    rhs_iii = rhs_ii ** 2 * float(pairwise_sum(w3 * psi ** 2))
    return (lhs_i, rhs_i), (lhs_ii, rhs_ii), (lhs_iii, rhs_iii)


def test_criterion_08_composition_bounds(ctx):
    e = cs.regularizer(THETA)
    e = e.with_bounded(cs.certify_bounded(e))
    ok = True
    details = []
    for key in ("diag12", "diag1m2", "jordan"):
        c_theta = ctx[key]["rep"].c_at(THETA)
        (l1, r1), (l2, r2), (l3, r3) = _composition_quantities(ctx[key], e, c_theta)
        ok &= l1 <= r1 and l2 <= r2 and l3 <= r3
        details.append(f"{key}: {l1:.2f}<={r1:.2f}, {l2:.2f}<={r2:.2f}, {l3:.2f}<={r3:.2f}")
    assert report_line(8, "composition bounds with stated constants", ok,
                       "; ".join(details))


def test_criterion_09_frame_bounds(ctx):
    e = cs.regularizer(THETA)
    ident = cs.CliffordOperator.from_real_matrix([[1.0]], n=1)
    rep_i = cs.check_bisectorial(ident, OMEGA)
    fb_i = cs.frame_bounds(e, ident, report=rep_i)
    ok_i = abs(fb_i.c_lower - 1.0) <= 1e-5 and abs(fb_i.d_upper - 1.0) <= 1e-5

    c = ctx["diag1m2"]
    qcfg = cs.default_quad_grid(c["T"])
    t_grid, w_grid = qcfg.grid()
    fam = (t_grid, w_grid) + c["eng"].evaluate_family(e, t_grid)
    fb_d = cs.frame_bounds(e, c["T"], family=fam)
    ok_d = abs(fb_d.c_lower - 1.0) <= 1e-5 and abs(fb_d.d_upper - 1.0) <= 1e-5

    j = ctx["jordan"]
    qcfg_j = cs.default_quad_grid(j["T"])
    tj, wj = qcfg_j.grid()
    fam_j = (tj, wj) + j["eng"].evaluate_family(e, tj)
    fb_j = cs.frame_bounds(e, j["T"], family=fam_j)
    ok_j = 0.0 < fb_j.c_lower < fb_j.d_upper

    tol = fb_j.truncation_error + fb_j.discretization_error + 1e-9
    ok_sand = True
    for _ in range(100):
        v = random_vector(RNG, 1, 2)
        qn = cs.quadratic_norm(e, j["T"], v, family=fam_j)
        ok_sand &= fb_j.c_lower * v.norm() - tol <= qn <= fb_j.d_upper * v.norm() + tol

    ok = ok_i and ok_d and ok_j and ok_sand
    assert report_line(
        9, "frame bounds", ok,
        f"Id ({fb_i.c_lower:.6f},{fb_i.d_upper:.6f}), "
        f"diag ({fb_d.c_lower:.6f},{fb_d.d_upper:.6f}), "
        f"jordan ({fb_j.c_lower:.4f},{fb_j.d_upper:.4f}), sandwich {ok_sand}")


def test_criterion_10_equivalence_constants(ctx):
    e = cs.regularizer(THETA)
    fs = [cs.constant_function(1.0, THETA),
          cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA),
          e,
          cs.e_alpha_family(0.5, THETA)]
    fs = [f if f.bounded is not None else f.with_bounded(cs.certify_bounded(f))
          for f in fs]

    # (a) upper frame constant against the dyadic-splitting constant, c = 1
    bound_a = math.sqrt(8.0 * math.log(2.0)) * (1.0 / math.cos(THETA)) / (1.0 - 0.5)
    ok_a = True
    frames = {}
    for key in ("diag12", "diag1m2", "jordan"):
        c = ctx[key]
        qcfg = cs.default_quad_grid(c["T"])
        t_grid, w_grid = qcfg.grid()
        fam = (t_grid, w_grid) + c["eng"].evaluate_family(e, t_grid)
        fb = cs.frame_bounds(e, c["T"], family=fam)
        fam_star = (t_grid, w_grid) + c["eng_star"].evaluate_family(e, t_grid)
        fb_star = cs.frame_bounds(e, c["Tstar"], family=fam_star)
        frames[key] = (fb, fb_star)
        if key != "jordan":  # self-adjoint cases, c = 1 exactly
            ok_a &= fb.d_upper <= bound_a

    # (b) two-step calculus norms dominated by the frame-ratio constant
    egg = cs.product_function(e, e, e)
    denom = cs.f0_infty(egg)
    ok_b = True
    worst_b = 0.0
    for key in ("diag12", "diag1m2", "jordan"):
        c = ctx[key]
        c_theta = c["rep"].c_at(THETA)
        cg = (c_theta ** 2 * e.decay.c_alpha ** 2 * math.pi) / (
            2.0 * math.cos(THETA) * e.decay.alpha ** 2 * denom)
        fb, _ = frames[key]
        for f in fs:
            res = cs.hinf_calculus(f, c["T"], c["rep"], engine=c["eng"])
            norm = cs.operator_norm(res.op)
            rhs = cg * fb.d_upper / (fb.c_lower * math.cos(THETA)) * f.bounded.sup_norm
            worst_b = max(worst_b, norm / rhs)
            ok_b &= norm <= rhs + res.combined_error

    # (c) lower frame constant from the adjoint-side upper constant
    ok_c = True
    details_c = []
    gs = [e, cs.resolve_function({"name": "rational", "params": {
        "num": [1.0, 1.0, 1.0, 0.0], "den": [1.0, 0.0, 2.0, 0.0, 1.0],
        "alpha": 1.0}}, THETA)]
    for key in ("diag12", "diag1m2", "jordan"):
        c = ctx[key]
        for g in gs:
            qcfg = cs.default_quad_grid(c["T"])
            t_grid, w_grid = qcfg.grid()
            fam = (t_grid, w_grid) + c["eng"].evaluate_family(g, t_grid)
            fb = cs.frame_bounds(g, c["T"], family=fam)
            fam_star = (t_grid, w_grid) + c["eng_star"].evaluate_family(g, t_grid)
            fb_star = cs.frame_bounds(g, c["Tstar"], family=fam_star)
            g2val = cs.f0_infty(cs.product_function(g, g))
            lhs = g2val / fb_star.d_upper
            ok_c &= lhs <= fb.c_lower * (1 + 1e-3) + 1e-12
            details_c.append(f"{lhs:.4f}<={fb.c_lower:.4f}")

    ok = ok_a and ok_b and ok_c
    assert report_line(
        10, "equivalence constants", ok,
        f"(a) dUpper<= {bound_a:.2f}: {ok_a}; (b) worst ratio {worst_b:.3f}; "
        f"(c) {', '.join(details_c)}")


def test_criterion_11_dyadic_sign_identity(ctx):
    e = cs.regularizer(THETA)
    c = ctx["diag1m2"]
    ok = True
    worst = 0.0
    for half_window in (1, 2, 3, 4, 5):  # 2n up to 10
        v = random_vector(RNG, 1, 2)
        lhs, rhs = cs.dyadic_sign_identity(e, c["T"], v, 0.7, half_window,
                                           engine=c["eng"])
        err = abs(lhs - rhs) / max(lhs, 1.0)
        worst = max(worst, err)
        ok &= err <= 1e-10
    for half_window in (1, 3, 5):
        a = cs.sign_matrix(half_window)
        gram = a.T @ a / a.shape[0]
        ok &= np.array_equal(gram, np.eye(2 * half_window))
    assert report_line(11, "dyadic sign identity and projector orthonormality",
                       ok, f"worst enumeration gap {worst:.2e}")


def test_criterion_12_adjoint_theorem(ctx):
    e = cs.regularizer(THETA)
    fs = [cs.constant_function(1.0, THETA),
          cs.rational_function([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], THETA),
          e,
          cs.e_alpha_family(0.5, THETA)]
    fs = [f if f.bounded is not None else f.with_bounded(cs.certify_bounded(f))
          for f in fs]
    ok = True
    worst = 0.0
    for key in ("diag12", "diag1m2", "jordan"):
        c = ctx[key]
        for f in fs:
            res = cs.hinf_calculus(f, c["T"], c["rep"], engine=c["eng"])
            res_star = cs.hinf_calculus(f, c["Tstar"], c["rep_star"],
                                        engine=c["eng_star"])
            gap = float(np.linalg.svd(
                cs.rho_matrix(res_star.op) - cs.rho_matrix(res.op).T,
                compute_uv=False)[0])
            tol = cs.combined_tolerance(res, res_star, floor=1e-8)
            worst = max(worst, gap / tol)
            ok &= gap <= tol
    assert report_line(12, "adjoint identity for the two-step calculus", ok,
                       f"worst gap/tol {worst:.3f}")
