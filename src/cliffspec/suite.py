"""Whole-operator verification: run every quantitative inequality end to end.

All randomness is drawn from one seeded generator, sampled in a fixed order,
and every contour and parameter quadrature uses deterministic reductions, so
identical inputs and configs produce byte-identical reports.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .calculus import (
    ContourConfig,
    ContourEngine,
    f_ab_operator,
    hinf_calculus,
)
from .errors import ArgumentError, NumericalFailureError
from .functions import (
    ensure_bounded,
    f0_infty,
    product_function,
    regularizer,
    resolve_function,
)
from .module import CliffordOperator, rho_matrix, spectral_norm
from .quadratic import check_frame_memory, default_quad_grid, frame_bounds, weighted_norms2
from .quadrature import pairwise_sum, trapezoid_grid
from .serialization import bisector_report_dict, frame_report_dict, operator_to_dict
from .spectrum import RaySampling, check_bisectorial


def default_g_specs():
    """Decay-class test functions: the regularizer, its square, and a
    mixed-parity rational whose squared parameter integral is nonzero."""
    return [
        {"name": "regularizer"},
        {"name": "product", "params": {"factors": [{"name": "regularizer"},
                                                   {"name": "regularizer"}]}},
        {"name": "rational", "params": {"num": [1.0, 1.0, 1.0, 0.0],
                                        "den": [1.0, 0.0, 2.0, 0.0, 1.0],
                                        "alpha": 1.0}},
    ]


def default_f_specs():
    """Bounded test functions for the two-step calculus."""
    return [
        {"name": "rational", "params": {"num": [1.0], "den": [1.0], "bounded": True}},
        {"name": "rational", "params": {"num": [1.0, 0.0, 0.0],
                                        "den": [1.0, 0.0, 1.0], "bounded": True}},
        {"name": "regularizer"},
        {"name": "e_alpha", "params": {"alpha": 0.5}},
    ]


def spec_name(spec) -> str:
    name = spec.get("name", "?")
    params = spec.get("params", {})
    if name == "rational":
        return f"rational({params.get('num')}/{params.get('den')})"
    if name == "e_alpha":
        return f"e_alpha({params.get('alpha')})"
    if name == "product":
        return "product(" + ",".join(spec_name(p) for p in params.get("factors", [])) + ")"
    if name == "scaled":
        return f"scaled({params.get('t')},{spec_name(params.get('inner', {}))})"
    if name == "f_ab":
        return f"f_ab({params.get('a')},{params.get('b')},{spec_name(params.get('inner', {}))})"
    return name


@dataclass(frozen=True)
class SuiteConfig:
    omega: float = math.pi / 12
    theta: float = math.pi / 4
    phi: float | None = None
    contour_nodes: int = 2000
    u_min: float = -30.0
    u_max: float = 30.0
    quad_nodes: int = 400
    n_sandwich: int = 100
    n_uniform_pairs: int = 25
    n_integral_taus: int = 5
    kernel_grid: int = 120
    seed: int = 0
    jobs: int = 1

    def contour(self):
        return ContourConfig(phi=self.phi, u_min=self.u_min, u_max=self.u_max,
                             nodes=self.contour_nodes)


def _record(name, lhs, rhs, tol=0.0, **extra):
    lhs = float(lhs)
    rhs = float(rhs)
    rec = {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "tol": float(tol),
        "margin": rhs + float(tol) - lhs,
        "pass": bool(lhs <= rhs + tol),
    }
    rec.update(extra)
    return rec


def _is_self_adjoint(T):
    rho = rho_matrix(T)
    return bool(np.allclose(rho, rho.T, atol=1e-12 * max(1.0, np.abs(rho).max())))


def run_theorem_suite(T: CliffordOperator, g_specs=None, f_specs=None,
                      config: SuiteConfig | None = None) -> dict:
    """Execute the full inequality suite on one operator; returns the report.

    Stages run in a fixed order; a failed bisectoriality certificate
    short-circuits every calculus stage with an explicit reason but the
    report is still produced.
    """
    config = config or SuiteConfig()
    theta = config.theta
    cfg = config.contour()
    phi_resolved = cfg.resolve_phi(config.omega, theta)
    if config.seed < 0:
        raise ArgumentError(f"seed={config.seed} must be a non-negative integer")
    if config.jobs < 1:
        raise ArgumentError(f"jobs={config.jobs} must be at least 1")
    g_specs = g_specs if g_specs is not None else default_g_specs()
    f_specs = f_specs if f_specs is not None else default_f_specs()
    check_frame_memory(T, config.quad_nodes, len(g_specs), config.jobs)
    rng = np.random.default_rng(config.seed)
    records = []
    stages = []

    report = {
        "report_version": 1,
        "operator": operator_to_dict(T),
        "config": asdict(config),
        "seed": config.seed,
        "g_registry": [spec_name(s) for s in g_specs],
        "f_registry": [spec_name(s) for s in f_specs],
        "g_registry_specs": g_specs,
        "f_registry_specs": f_specs,
    }

    gs = [(spec_name(s), ensure_bounded(resolve_function(s, theta))) for s in g_specs]
    fs = [(spec_name(s), ensure_bounded(resolve_function(s, theta))) for s in f_specs]

    # stage: bisectoriality certificate ------------------------------------
    spread = RaySampling().resolved_phis(config.omega)
    phis = tuple(sorted(set(spread) | {theta, phi_resolved}))
    bisector = check_bisectorial(T, config.omega, RaySampling(phis=phis))
    stages.append({"name": "bisectorial", "status": "done"})
    report["bisector"] = bisector_report_dict(bisector)
    records.append(_record("bisectorial_certificate",
                           0.0 if bisector.certified else 1.0, 0.0))
    records.append(_record("injectivity",
                           0.0 if bisector.injective else 1.0, 0.0))

    if not (bisector.certified and bisector.injective):
        reason = ("operator is not certified bisectorial at the requested angle"
                  if not bisector.certified else "operator is not injective")
        for name in ("frames", "hinf_norms", "inequalities", "convergence",
                     "adjoint"):
            stages.append({"name": name, "status": "skipped", "reason": reason})
        report["records"] = records
        report["stages"] = stages
        report["passed"] = False
        return report

    c_theta = bisector.c_at(theta)
    engine = ContourEngine(T, bisector, theta, cfg)
    t_star = T.adjoint()
    bisector_star = check_bisectorial(t_star, config.omega, RaySampling(phis=phis))
    engine_star = ContourEngine(t_star, bisector_star, theta, cfg)
    qcfg = default_quad_grid(T, config.quad_nodes)

    # stage: frame bounds for each g on T and T* ---------------------------
    t_grid, w_grid = qcfg.grid()

    def frames_for(args):
        _, g = args
        fam = (t_grid, w_grid) + engine.evaluate_family(g, t_grid)
        fb = frame_bounds(g, T, qcfg, cfg, family=fam)
        fam_star = (t_grid, w_grid) + engine_star.evaluate_family(g, t_grid)
        fb_star = frame_bounds(g, t_star, qcfg, cfg, family=fam_star)
        return fb, fb_star, fam

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            frame_results = list(pool.map(frames_for, gs))
    else:
        frame_results = [frames_for(item) for item in gs]
    frames = {name: (fb, fbs) for (name, _), (fb, fbs, _) in zip(gs, frame_results)}
    families = {name: fam for (name, _), (_, _, fam) in zip(gs, frame_results)}
    report["frames"] = {
        name: {"T": frame_report_dict(fb), "Tstar": frame_report_dict(fbs)}
        for name, (fb, fbs) in frames.items()
    }
    stages.append({"name": "frames", "status": "done"})

    # stage: two-step calculus norms per bounded f -------------------------
    hinf = {}
    for name, f in fs:
        res = hinf_calculus(f, T, bisector, cfg, engine=engine)
        norm = float(spectral_norm(rho_matrix(res.op)))
        hinf[name] = (f, res, norm)
    report["hinf_norms"] = {
        name: {"norm": norm,
               "truncation_error": res.truncation_error,
               "discretization_error": res.discretization_error}
        for name, (f, res, norm) in hinf.items()
    }
    stages.append({"name": "hinf_norms", "status": "done"})

    # stage: inequality records --------------------------------------------
    e = regularizer(theta)
    g_hinf = {gname: hinf_calculus(g, T, bisector, cfg, engine=engine) for gname, g in gs}
    sandwich_vecs = rng.standard_normal((config.n_sandwich, T.m << T.n))
    for gname, g in gs:
        fb, fb_star = frames[gname]
        fam = families[gname]
        records.extend(_frame_sandwich_records(gname, fb, sandwich_vecs, fam,
                                               fb.combined_error + 1e-9))
        records.extend(_composition_bound_records(gname, g, engine, c_theta,
                                                  fam, config, rng))
        egg = f0_infty(product_function(e, g, g))
        records.append(_record(f"regularized_square_positive[g={gname}]", 1e-12, egg))
        records.append(_dyadic_splitting_upper(gname, g, T, fb, hinf))
        # the constant of the sup-norm domination
        cg = (c_theta ** 2 * g.decay.c_alpha ** 2 * math.pi) / (
            2.0 * math.cos(theta) * g.decay.alpha ** 2 * egg)
        for fname, (f, res, norm) in hinf.items():
            records.append(_frame_ratio_bound(gname, fname, f, norm, res, fb, cg, theta))
        records.append(_adjoint_side_lower(gname, g, fb, fb_star))
        records.extend(_sup_domination_records(gname, T, fam, cg, rng, gs, g_hinf))
    stages.append({"name": "inequalities", "status": "done"})

    # stage: parameter-truncation convergence ladder ------------------------
    records.extend(_fab_ladder_records(T, bisector, cfg, theta, engine))
    stages.append({"name": "convergence", "status": "done"})

    # stage: adjoint identity -----------------------------------------------
    for fname, (f, res, norm) in hinf.items():
        res_star = hinf_calculus(f, t_star, bisector_star, cfg, engine=engine_star)
        gap_norm = float(spectral_norm(rho_matrix(res_star.op) - rho_matrix(res.op).T))
        tol = (res.truncation_error + res.discretization_error
               + res_star.truncation_error + res_star.discretization_error + 1e-8)
        records.append(_record(f"adjoint[f={fname}]", gap_norm, 0.0, tol=tol))
    stages.append({"name": "adjoint", "status": "done"})

    report["records"] = records
    report["stages"] = stages
    report["passed"] = all(r["pass"] for r in records)
    return report


def _frame_sandwich_records(gname, fb, xs, family, quad_tol):
    _, w_grid, mats, _, _ = family
    qn = np.sqrt(np.maximum(weighted_norms2(w_grid, mats, xs), 0.0))
    nv = np.linalg.norm(xs, axis=1)
    worst_low = float(np.max(fb.c_lower * nv - qn))
    worst_high = float(np.max(qn - fb.d_upper * nv))
    return [
        _record(f"frame_sandwich_lower[g={gname}]", worst_low, 0.0, tol=quad_tol),
        _record(f"frame_sandwich_upper[g={gname}]", worst_high, 0.0, tol=quad_tol),
    ]


def _composition_bound_records(gname, g, engine, c_theta, family, config, rng):
    """Composition bounds: uniform, integrated, and the square-kernel form."""
    alpha, c_alpha = g.decay.alpha, g.decay.c_alpha
    sup_g = g.bounded.sup_norm
    records = []

    # i) uniform bound at random parameter pairs
    pairs = 10.0 ** rng.uniform(-3, 3, size=(config.n_uniform_pairs, 2))
    signs = rng.choice([-1.0, 1.0], size=(config.n_uniform_pairs, 2))
    ts = pairs * signs
    mats_t, _, _ = engine.evaluate_family(g, ts[:, 0])
    mats_tau, _, _ = engine.evaluate_family(g, ts[:, 1])
    prods = np.einsum("kab,kbc->kac", mats_t, mats_tau)
    lhs_i = float(np.max(spectral_norm(prods)))
    rhs_i = c_theta * c_alpha / alpha * sup_g
    records.append(_record(f"composition_uniform_bound[f=g={gname}]", lhs_i, rhs_i))

    # ii) dt/|t| integral of the composition norm at random tau
    t_grid, w_grid, fam, _, _ = family
    taus = 10.0 ** rng.uniform(-2, 2, size=config.n_integral_taus) * rng.choice(
        [-1.0, 1.0], size=config.n_integral_taus)
    rhs_ii = c_theta * c_alpha * c_alpha * math.pi / (2.0 * alpha * alpha)
    lhs_ii = 0.0
    for tau in taus:
        m_tau, _, _ = engine.evaluate_family(g, [tau])
        prods = fam @ m_tau[0]
        norms = spectral_norm(prods)
        lhs_ii = max(lhs_ii, float(pairwise_sum(w_grid * norms)))
    records.append(_record(f"composition_integral_bound[f=g={gname}]", lhs_ii, rhs_ii))

    # iii) square-kernel inequality with an indicator-weighted sample family
    n3 = config.kernel_grid
    center = math.sqrt(np.abs(t_grid).min() * np.abs(t_grid).max())
    u, w3 = trapezoid_grid(math.log(center) - 3 * math.log(10.0),
                           math.log(center) + 3 * math.log(10.0), n3)
    t3 = np.exp(u)
    t3 = np.concatenate([t3, -t3])
    w3 = np.concatenate([w3, w3])
    fam3, _, _ = engine.evaluate_family(g, t3)
    # g(tT) and g(tau T) commute, so the kernel is symmetric: the norms of
    # the products k <= l fill both triangles, one row at a time
    norms = np.empty((2 * n3, 2 * n3))
    for k in range(2 * n3):
        norms[k, k:] = norms[k:, k] = spectral_norm(np.matmul(fam3[k], fam3[k:]))
    lo, hi = sorted(10.0 ** rng.uniform(-2, 2, size=2))
    hi = max(hi, 10.0 * lo)  # keep the indicator window from missing every node
    psi = np.where((np.abs(t3) >= lo * center) & (np.abs(t3) <= hi * center), 1.0, 0.0)
    inner = norms.T @ (w3 * psi)          # integral over t for each tau
    lhs_iii = float(pairwise_sum(w3 * inner ** 2))
    rhs_iii = rhs_ii ** 2 * float(pairwise_sum(w3 * psi ** 2))
    records.append(_record(f"composition_square_kernel[f=g={gname}]", lhs_iii, rhs_iii))
    return records


def _sup_domination_records(gname, T, family, cg, rng, gs, g_hinf):
    """Square-integral domination of f(T) by the sup norm, per decay-class f;
    ``g_hinf`` maps each name in ``gs`` to its hinf_calculus result."""
    records = []
    _, w_grid, fam, _, _ = family
    x = rng.standard_normal(T.m << T.n)
    rows = [x] + [rho_matrix(g_hinf[fname].op) @ x for fname, _ in gs]
    base_sq, *sq = weighted_norms2(w_grid, fam, np.stack(rows))
    for (fname, f), lhs in zip(gs, sq):
        rhs = cg ** 2 * f.bounded.sup_norm ** 2 * float(base_sq)
        records.append(_record(f"sup_norm_domination[g={gname},f={fname}]", lhs, rhs))
    return records


def _dyadic_splitting_upper(gname, g, T, fb, hinf):
    beta, c_beta = g.decay.alpha, g.decay.c_alpha
    if _is_self_adjoint(T):
        c = 1.0
        one_sided = False
    else:
        c = max(norm / f.bounded.sup_norm for f, res, norm in hinf.values())
        one_sided = True
    rhs = math.sqrt(8.0 * math.log(2.0)) * c * c_beta / (1.0 - 2.0 ** -beta)
    return _record(f"dyadic_splitting_upper[g={gname}]", fb.d_upper, rhs,
                   tol=fb.combined_error,
                   one_sided=one_sided, c_used=c)


def _frame_ratio_bound(gname, fname, f, norm, res, fb, cg, theta):
    rhs = cg * fb.d_upper / (fb.c_lower * math.cos(theta)) * f.bounded.sup_norm
    return _record(f"frame_ratio_norm_bound[g={gname},f={fname}]", norm, rhs,
                   tol=res.combined_error)


def _adjoint_side_lower(gname, g, fb, fb_star):
    gg = product_function(g, g)
    g2_val = f0_infty(gg)
    lhs = g2_val / fb_star.d_upper if fb_star.d_upper > 0 else 0.0
    tol = 1e-3 * max(abs(lhs), abs(fb.c_lower)) + (
        fb.truncation_error + fb.discretization_error
        + fb_star.truncation_error + fb_star.discretization_error)
    return _record(f"adjoint_side_lower_bound[g={gname}]", lhs, fb.c_lower, tol=tol,
                   g2_integral=g2_val)


def _matrix_sign(rho_t):
    """sgn(rho T) by the Newton iteration X <- (X + X^-1) / 2 (Higham,
    Functions of Matrices, ch. 5), to a relative step of 1e-14."""
    x = rho_t
    for _ in range(100):
        nxt = 0.5 * (x + np.linalg.inv(x))
        if np.linalg.norm(nxt - x) <= 1e-14 * np.linalg.norm(nxt):
            return nxt
        x = nxt
    raise NumericalFailureError("matrix sign iteration did not converge in 100 steps")


def _fab_ladder_records(T, bisector, cfg, theta, engine=None):
    """Truncated parameter integrals of the regularizer approach pi sgn(T).

    ``deviations`` keeps the distance to pi Id; the record passes on
    ``sign_deviations``, the distance to pi sgn(T), which falls with each rung.
    """
    e = regularizer(theta)
    target = f0_infty(e)
    records = [_record("parameter_integral_value", abs(target - math.pi), 1e-8)]
    rho_t = rho_matrix(T)
    sign_target = math.pi * _matrix_sign(rho_t)
    devs, sign_devs = [], []
    tol = 0.1
    for k in range(1, 5):
        a, b = 10.0 ** -k, 10.0 ** k
        res = f_ab_operator(e, a, b, T, bisector, cfg, engine=engine)
        fab = rho_matrix(res.op)
        devs.append(float(spectral_norm(fab - target * np.eye(rho_t.shape[0]))))
        sign_devs.append(float(spectral_norm(fab - sign_target)))
        tol += res.combined_error
    ratios = [sign_devs[i + 1] / sign_devs[i] for i in range(len(sign_devs) - 1)
              if sign_devs[i] > 0]
    records.append(_record("truncation_ladder_monotone", max(ratios), 1.0, tol=tol,
                           deviations=devs, sign_deviations=sign_devs))
    return records
