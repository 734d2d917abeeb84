"""Whole-operator verification: run every quantitative inequality end to end.

All randomness is drawn from one seeded generator, sampled in a fixed order,
and every contour and parameter quadrature uses deterministic reductions, so
identical inputs and configs produce byte-identical reports.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .calculus import (
    ContourConfig,
    ContourEngine,
    combined_tolerance,
    f_ab_operators,
    hinf_operators,
)
from .errors import ArgumentError, CertificationError, NumericalFailureError
from .functions import (
    DEFAULT_THETA,
    ensure_bounded,
    f0_infty,
    product_function,
    regularizer,
    resolve_function,
)
from .module import (CliffordOperator, Diagonal, block_products, entry_norms, rho_matrix,
                     spectral_norm)
from .quadratic import (QuadGridConfig, _frame_norms2, _grid_engine, check_frame_memory,
                        default_quad_grid, family_frames)
from .quadrature import pairwise_sum
from .serialization import (
    bisector_report_dict,
    contour_dict,
    frame_report_dict,
    grid_nodes,
    operator_to_dict,
)
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
    if not isinstance(spec, dict):  # a malformed spec, which resolve_function refuses
        return "?"
    name = spec.get("name", "?")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        params = {}
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
    theta: float = DEFAULT_THETA
    phi: float | None = None
    contour_nodes: int = ContourConfig.nodes  # the finest contour a run may use (``_grid_engine``)
    quad_nodes: int = QuadGridConfig.nodes
    n_sandwich: int = 100
    seed: int = 0


# random parameter pairs of the uniform composition bound and random tau of
# the integrated one
UNIFORM_PAIRS = 25
INTEGRAL_TAUS = 5


def _square(x):
    """x ** 2, and inf where that overflows (a claim ``_record`` refuses)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _quotient(num, den):
    """num / den, and inf where den is 0 (a claim ``_record`` refuses)."""
    return num / den if den else math.inf


@contextmanager
def _stage(name, item):
    """Name the stage and the g or f it ran on in an ArgumentError or a NumericalFailureError."""
    try:
        yield
    except (ArgumentError, NumericalFailureError) as exc:
        exc.args = (f"{name} stage, {item}: {exc}",)
        raise


def _certified(kind, spec, theta):
    """The function of ``spec`` with a bounded certificate, and a decay one
    for a g; a refused function is prefixed with the label ``kind=name`` of
    the spec (a malformed spec, a SchemaError, has none)."""
    try:
        f = ensure_bounded(resolve_function(spec, theta))
        if kind == "g" and f.decay is None:
            raise CertificationError("a g needs a decay certificate, and this one has none; "
                                     "give each rational in it an 'alpha' to fit one")
        return f
    except (ArgumentError, CertificationError) as exc:
        exc.args = (f"{kind}={spec_name(spec)}: {exc}",)
        raise


def _hinf_stage(name, items, *args):
    """``hinf_operators`` of the (label, f) ``items``; a failure is rerun f by f to name it."""
    try:
        return hinf_operators([f for _, f in items], *args)
    except (ArgumentError, NumericalFailureError):
        for label, f in items:
            with _stage(name, label):
                hinf_operators([f], *args)
        raise


def _record(name, lhs, rhs, tol=0.0, **extra):
    """The record lhs <= rhs + tol; a bound rhs + tol that is not finite
    would pass any lhs, so it raises NumericalFailureError."""
    lhs = float(lhs)
    rhs = float(rhs)
    tol = float(tol)
    if not (math.isfinite(rhs) and math.isfinite(tol)):
        raise NumericalFailureError(
            f"record {name} claims a bound that is not finite (rhs {rhs!r}, tol {tol!r})")
    rec = {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "tol": tol,
        "margin": rhs + tol - lhs,
        "pass": bool(lhs <= rhs + tol),
    }
    rec.update(extra)
    return rec


def run_theorem_suite(T: CliffordOperator, g_specs=None, f_specs=None,
                      config: SuiteConfig | None = None) -> dict:
    """Execute the full inequality suite on one operator; returns the report.

    Stages run in a fixed order; a failed bisectoriality certificate
    short-circuits every calculus stage with an explicit reason but the
    report is still produced.
    """
    config = config or SuiteConfig()
    theta = config.theta
    requested = ContourConfig(phi=config.phi, nodes=config.contour_nodes)
    angles = requested.contour_angles(config.omega, theta)
    if config.seed < 0:
        raise ArgumentError(f"seed={config.seed} must be a non-negative integer")
    g_specs = g_specs if g_specs is not None else default_g_specs()
    f_specs = f_specs if f_specs is not None else default_f_specs()
    for what, specs in (("g", g_specs), ("f", f_specs)):
        if not specs:
            raise ArgumentError(f"{what}_specs is empty: the suite needs at least one {what}")
    check_frame_memory(T, config.quad_nodes, len(g_specs), config.contour_nodes)
    rng = np.random.default_rng(config.seed)
    records, stages = [], []

    report = {
        "report_version": 7,
        "operator": operator_to_dict(T),
        "config": asdict(config),
        "seed": config.seed,
        "g_registry": [spec_name(s) for s in g_specs],
        "f_registry": [spec_name(s) for s in f_specs],
        "g_registry_specs": g_specs,
        "f_registry_specs": f_specs,
    }

    gs = [(spec_name(s), _certified("g", s, theta)) for s in g_specs]
    fs = [(spec_name(s), _certified("f", s, theta)) for s in f_specs]

    # stage: bisectoriality certificate ------------------------------------
    spread = RaySampling().resolved_phis(config.omega)
    phis = tuple(sorted(set(spread) | {theta, *angles}))
    bisector = check_bisectorial(T, config.omega, RaySampling(phis=phis))
    stages.append({"name": "bisectorial", "status": "done"})
    report["bisector"] = bisector_report_dict(bisector)
    records.append(_record("bisectorial_certificate", 0.0 if bisector.certified else 1.0, 0.0))
    records.append(_record("injectivity", 0.0 if bisector.injective else 1.0, 0.0))

    if not (bisector.certified and bisector.injective):
        reason = ("operator is not certified bisectorial at the requested angle"
                  if not bisector.certified else "operator is not injective")
        for name in ("frames", "hinf_norms", "inequalities", "convergence", "adjoint"):
            stages.append({"name": name, "status": "skipped", "reason": reason})
        report.update(records=records, stages=stages, passed=False)
        return report

    c_theta = bisector.c_at(theta)
    t_grid, w_grid, engine, stride = _grid_engine(
        T, bisector, theta, [g for _, g in gs], default_quad_grid(T, config.quad_nodes), requested)
    cfg, basis = engine.cfg, engine.basis
    report["contour"] = contour_dict(cfg, stride)

    # stage: frame bounds for each g on T and T* ---------------------------
    frames = {}
    for name, g in gs:
        with _stage("frames", f"g={name}"):
            frames[name] = family_frames(g, engine, t_grid, w_grid, adjoint=True)
    report["frames"] = {
        name: {"T": frame_report_dict(fb), "Tstar": frame_report_dict(fbs)}
        for name, (fb, fbs, _) in frames.items()
    }
    report["contour"]["grid_nodes"] = grid_nodes(t_grid)
    report["contour"]["grid_rule_error"] = max(
        (fb.grid_rule_error for fb, _, _ in frames.values()), default=0.0)
    report["contour"]["basis"] = {
        "path": "dense" if basis is None else "eigen",
        "residual": None if basis is None else max(
            float(frame.e.max()) for _, _, frame in frames.values()),
    }
    stages.append({"name": "frames", "status": "done"})

    # stage: two-step calculus of each bounded f, with its norm, and of each g
    results = _hinf_stage("hinf_norms", [(f"f={name}", f) for name, f in fs]
                          + [(f"g={name}", g) for name, g in gs], T, bisector, cfg, engine)
    hinf = {name: (f, res, float(spectral_norm(rho_matrix(res.op))))
            for (name, f), res in zip(fs, results)}
    report["hinf_norms"] = {
        name: {"norm": norm,
               "truncation_error": res.truncation_error,
               "discretization_error": res.discretization_error}
        for name, (f, res, norm) in hinf.items()
    }
    stages.append({"name": "hinf_norms", "status": "done"})

    # stage: inequality records --------------------------------------------
    e = regularizer(theta)
    sandwich_vecs = rng.standard_normal((config.n_sandwich, T.m << T.n))
    for gname, g in gs:
        fb, fb_star, frame = frames[gname]
        with _stage("inequalities", f"g={gname}"):
            records.extend(_frame_sandwich_records(gname, fb, sandwich_vecs))
            records.extend(_composition_bound_records(gname, g, c_theta, t_grid, w_grid,
                                                      frame, rng))
            egg = f0_infty(product_function(e, g, g))
            records.append(_record(f"regularized_square_positive[g={gname}]", 1e-12, egg))
            records.append(_dyadic_splitting_upper(gname, g, basis is not None, fb, hinf))
            # the constant of the sup-norm domination
            cg = _quotient(_square(c_theta) * _square(g.decay.c_alpha) * math.pi,
                           2.0 * math.cos(theta) * g.decay.alpha ** 2 * egg)
            for fname, (f, res, norm) in hinf.items():
                records.append(_frame_ratio_bound(gname, fname, f, norm, res, fb, cg, theta))
            records.append(_adjoint_side_lower(gname, g, fb, fb_star))
            records.extend(_sup_domination_records(gname, T, fb, cg, rng, gs, results[len(fs):]))
    stages.append({"name": "inequalities", "status": "done"})

    # release the families before the engine of T*; the engine of T serves
    # the ladder only
    frames = frame = None

    # stage: parameter-truncation convergence ladder ------------------------
    with _stage("convergence", "f_ab of the regularizer"):
        records.extend(_fab_ladder_records(T, bisector, cfg, theta, engine))
    stages.append({"name": "convergence", "status": "done"})
    engine = None

    # stage: adjoint identity; T* = T (T has a ``basis``) reads T's values, else
    # T* is certified at the contour's angles alone: rho(Q_s(T*)) = rho(Q_s(T))^T
    # stands or falls with T's
    if basis is not None:
        stars = [res for _, res, _ in hinf.values()]
    else:
        t_star = T.adjoint()
        star = check_bisectorial(t_star, config.omega, RaySampling(phis=angles))
        stars = _hinf_stage("adjoint", [(f"f={name}", f) for name, (f, _, _) in hinf.items()],
                            t_star, star, cfg, ContourEngine(t_star, star, theta, cfg))
    for (fname, (f, res, norm)), res_star in zip(hinf.items(), stars):
        with _stage("adjoint", f"f={fname}"):
            gap_norm = float(spectral_norm(rho_matrix(res_star.op) - rho_matrix(res.op).T))
            records.append(_record(f"adjoint[f={fname}]", gap_norm, 0.0,
                                   tol=combined_tolerance(res, res_star, floor=1e-8)))
    stages.append({"name": "adjoint", "status": "done"})

    report.update(records=records, stages=stages, passed=all(r["pass"] for r in records))
    return report


def _frame_sandwich_records(gname, fb, xs):
    qn = np.sqrt(np.maximum(_frame_norms2(fb, xs), 0.0))
    nv = np.linalg.norm(xs, axis=1)
    worst_low = float(np.max(fb.c_lower * nv - qn))
    worst_high = float(np.max(qn - fb.d_upper * nv))
    return [
        _record(f"frame_sandwich_lower[g={gname}]", worst_low, 0.0, tol=combined_tolerance(fb)),
        _record(f"frame_sandwich_upper[g={gname}]", worst_high, 0.0, tol=combined_tolerance(fb)),
    ]


def _product_norms(blocks, chunk):
    """(ks, ls) -> ||B_k B_l|| over a family, ``chunk`` at a time: by
    ``block_products`` and ``spectral_norm``, or from one table (entry, r,
    values) read once per family, one gather per factor:
    - on a ``Diagonal``, the bound max|d_k d_l| + e_k (||d_l||inf + e_l) +
      ||d_k||inf e_l, from rows of |d|, max|d| and e, one multiply and maxima
      of whole rows (d is real, so |d_k| |d_l| = |d_k d_l| to the bit);
    - on blocks of size km <= 2, the entries of the products as
      ``block_products`` forms them and their norms by ``spectral_norm``'s
      closed form (``module.entry_norms``), the same floats."""
    if isinstance(blocks, Diagonal):
        mag = np.abs(blocks.d)
        table = np.concatenate([mag, mag.max(axis=-1, keepdims=True), blocks.e[..., None]],
                               axis=-1).transpose(2, 1, 0).copy()

        def bound(k, l):
            a, b = table.take(k, axis=-1), table.take(l, axis=-1)
            each = np.maximum.reduce(a[:-2] * b[:-2]) + a[-1] * (b[-2] + b[-1]) + a[-2] * b[-1]
            return np.maximum.reduce(each)
    elif blocks.shape[-1] <= 2:
        table = blocks.reshape(*blocks.shape[:2], -1).transpose(2, 1, 0).copy()

        def bound(k, l):
            a, b = table.take(k, axis=-1), table.take(l, axis=-1)
            if len(a) == 1:
                return np.maximum.reduce(np.abs(a[0] * b[0]))
            products = (a[i] * b[j] + a[i + 1] * b[j + 2] for i in (0, 2) for j in (0, 1))
            return np.maximum.reduce(entry_norms(*products))
    else:
        def bound(k, l):
            return spectral_norm(block_products(blocks[k], blocks[l])).max(axis=-1)

    def norms(ks, ls):
        out = np.empty(len(ks))
        for lo in range(0, len(ks), chunk):
            out[lo:lo + chunk] = bound(ks[lo:lo + chunk], ls[lo:lo + chunk])
        return out
    return norms


def _composition_bound_records(gname, g, c_theta, t_grid, w_grid, blocks, rng):
    """Composition bounds: uniform, integrated, and the square-kernel form.

    The norm of rho(g(tT) g(tau T)) is the largest norm of the products of
    its spinor blocks (``_product_norms``, as many products at a time as the
    family has values); ``blocks`` holds those of the family on the grid
    (t, w), as their ``Diagonal`` when the engine has an eigenbasis.  Every
    record reads its values off the family: each random parameter 10^u of
    i) and ii), in units of the centre 1 / ||T|| of the grid, is the node
    nearest to it within three decades of the centre, and the square kernel
    takes every second node of each sign there.

    In an eigenbasis each block B_k is diagonal up to roundoff,
    D_k = U^H B_k U = diag(d_k) plus a rest of norm at most e_k, and the
    norm of a product is a bound from d and e.  Each lhs is a max, a
    positively weighted sum, or a sum of squares of positively weighted sums
    of those norms, so it can only rise, and a pass is still a pass of the
    exact records.
    """
    alpha, c_alpha = g.decay.alpha, g.decay.c_alpha
    sup_g = g.bounded.sup_norm
    records = []
    norms = _product_norms(blocks, t_grid.size)

    # the grid is (+t, -t), h_t its interior weight; the nodes within three
    # decades of the centre lie within ``half`` steps of it
    per_sign = t_grid.size // 2
    center = per_sign // 2
    step = w_grid[center]
    # the slack keeps a whole ratio (120 at 400 nodes) from flooring one
    # lower through the rounding of the step
    half = math.floor(3.0 * math.log(10.0) / step * (1.0 + 1e-12))

    def nodes(u, signs):
        """The grid index of each sign * 10^u / ||T||, to the nearest node."""
        j = center + np.clip(np.rint(u * math.log(10.0) / step), -half, half).astype(int)
        return np.where(signs < 0, j + per_sign, j)

    # the random parameter pairs of i) and the random tau of ii)
    u_pairs = rng.uniform(-3, 3, size=(UNIFORM_PAIRS, 2))
    pairs = nodes(u_pairs, rng.choice([-1.0, 1.0], size=(UNIFORM_PAIRS, 2)))
    u_taus = rng.uniform(-2, 2, size=INTEGRAL_TAUS)
    taus = nodes(u_taus, rng.choice([-1.0, 1.0], size=INTEGRAL_TAUS))

    # i) uniform bound at random parameter pairs
    lhs_i = float(np.max(norms(pairs[:, 0], pairs[:, 1])))
    rhs_i = c_theta * c_alpha / alpha * sup_g
    records.append(_record(f"composition_uniform_bound[f=g={gname}]", lhs_i, rhs_i))

    # ii) dt/|t| integral of the composition norm at random tau
    rhs_ii = _quotient(c_theta * c_alpha * c_alpha * math.pi, 2.0 * alpha * alpha)
    each = norms(np.tile(np.arange(t_grid.size), taus.size), np.repeat(taus, t_grid.size))
    lhs_ii = max(0.0, float(pairwise_sum(w_grid[:, None] * each.reshape(taus.size, -1).T).max()))
    records.append(_record(f"composition_integral_bound[f=g={gname}]", lhs_ii, rhs_ii))

    # iii) square-kernel inequality with an indicator-weighted sample family,
    # on the trapezoid rule of step 2 h_t
    idx = np.arange(center - half, center + half + 1, 2)
    idx = np.concatenate([idx, idx + per_sign])
    t3 = t_grid[idx]
    w3 = np.full(idx.size, 2.0 * step)
    w3[[0, idx.size // 2 - 1, idx.size // 2, -1]] = step
    lo, hi = sorted(10.0 ** rng.uniform(-2, 2, size=2))
    hi = max(hi, 10.0 * lo)  # keep the indicator window from missing every node
    mid = abs(t_grid[center])
    psi = np.where((np.abs(t3) >= lo * mid) & (np.abs(t3) <= hi * mid), 1.0, 0.0)
    # g(tT) and g(tau T) commute, so the kernel is symmetric, and ``inner``
    # reads only the rows in supp(psi): each pair (min, max) of a there and b
    # not there or b >= a is multiplied once, and every other entry stays 0
    supp = np.flatnonzero(psi > 0.0)
    a, b = np.repeat(supp, idx.size), np.tile(np.arange(idx.size), supp.size)
    ks, ls = (pick(a, b)[(psi[b] == 0.0) | (b >= a)] for pick in (np.minimum, np.maximum))
    kernel = np.zeros((idx.size, idx.size))
    kernel[ks, ls] = kernel[ls, ks] = norms(idx[ks], idx[ls])
    inner = kernel.T @ (w3 * psi)          # integral over t for each tau
    lhs_iii = float(pairwise_sum(w3 * inner ** 2))
    rhs_iii = _square(rhs_ii) * float(pairwise_sum(w3 * psi ** 2))
    records.append(_record(f"composition_square_kernel[f=g={gname}]", lhs_iii, rhs_iii))
    return records


def _sup_domination_records(gname, T, fb, cg, rng, gs, g_hinf):
    """Square-integral domination of f(T) by the sup norm, per decay-class f;
    ``g_hinf`` holds the hinf_operators result of each f in ``gs``."""
    records = []
    x = rng.standard_normal(T.m << T.n)
    rows = [x] + [rho_matrix(res.op) @ x for res in g_hinf]
    base_sq, *sq = _frame_norms2(fb, np.stack(rows))
    for (fname, f), lhs in zip(gs, sq):
        rhs = _square(cg) * f.bounded.sup_norm ** 2 * float(base_sq)
        records.append(_record(f"sup_norm_domination[g={gname},f={fname}]", lhs, rhs))
    return records


def _dyadic_splitting_upper(gname, g, self_adjoint, fb, hinf):
    """The dyadic upper bound of the frame constant: c = 1 for self-adjoint
    T (the certificate's ``basis``), else the largest hinf norm ratio,
    which is refused where it is 0: every f(T) vanishes."""
    beta, c_beta = g.decay.alpha, g.decay.c_alpha
    if self_adjoint:
        c = 1.0
        one_sided = False
    else:
        c = max(_quotient(norm, f.bounded.sup_norm) for f, res, norm in hinf.values())
        one_sided = True
        if c == 0.0:
            raise NumericalFailureError(
                f"record dyadic_splitting_upper[g={gname}] takes c = 0, the largest "
                "||f(T)|| / ||f||_inf over the bounded f: every f(T) vanishes, and a "
                "zero ratio is no estimate of the calculus constant")
    rhs = _quotient(math.sqrt(8.0 * math.log(2.0)) * c * c_beta, 1.0 - 2.0 ** -beta)
    return _record(f"dyadic_splitting_upper[g={gname}]", fb.d_upper, rhs,
                   tol=combined_tolerance(fb, floor=0.0),
                   one_sided=one_sided, c_used=c)


def _frame_ratio_bound(gname, fname, f, norm, res, fb, cg, theta):
    lower = fb.c_lower * math.cos(theta)
    if lower == 0.0:
        raise NumericalFailureError(
            f"frame lower bound of g={gname} is c_lower={fb.c_lower!r}; "
            "the frame ratio bound divides by it")
    rhs = cg * fb.d_upper / lower * f.bounded.sup_norm
    return _record(f"frame_ratio_norm_bound[g={gname},f={fname}]", norm, rhs,
                   tol=combined_tolerance(res, floor=0.0))


def _adjoint_side_lower(gname, g, fb, fb_star):
    gg = product_function(g, g)
    g2_val = f0_infty(gg)
    lhs = g2_val / fb_star.d_upper if fb_star.d_upper > 0 else 0.0
    # g^2 with a zero parameter integral (an even g^2) makes the lhs 0
    extra = {"vacuous": True} if g2_val == 0.0 else {}
    floor = 1e-3 * max(abs(lhs), abs(fb.c_lower))
    return _record(f"adjoint_side_lower_bound[g={gname}]", lhs, fb.c_lower,
                   tol=combined_tolerance(fb, fb_star, floor=floor),
                   g2_integral=g2_val, **extra)


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
    windows = [(10.0 ** -k, 10.0 ** k) for k in range(1, 5)]
    rungs = f_ab_operators(e, windows, T, bisector, cfg, engine=engine)
    fabs = [rho_matrix(res.op) for res in rungs]
    devs = [float(spectral_norm(fab - target * np.eye(rho_t.shape[0]))) for fab in fabs]
    sign_devs = [float(spectral_norm(fab - sign_target)) for fab in fabs]
    ratios = [sign_devs[i + 1] / sign_devs[i] for i in range(len(sign_devs) - 1)
              if sign_devs[i] > 0]
    records.append(_record("truncation_ladder_monotone", max(ratios), 1.0,
                           tol=combined_tolerance(*rungs, floor=0.1),
                           deviations=devs, sign_deviations=sign_devs))
    return records
