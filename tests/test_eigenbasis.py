"""Self-adjoint operators through one eigenbasis per spinor block: the
exact self-adjointness predicate, decided once by the certificate, whose
basis the engine and the grid bounds read, Q_s^-1 stored as diagonals without
inverses, the composition bounds against the dense norms, the diagonal path
against the dense one, and operators self-adjoint only to rounding on the
dense path against their exactly self-adjoint twins."""

import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec import calculus
from cliffspec.module import (
    Diagonal,
    block_form,
    operator_from_real,
    self_adjoint_basis,
    spectral_norm,
)
from cliffspec.quadratic import GridBound, family_frames, lattice_contour
from cliffspec.spectrum import q_inverse_stack
from cliffspec.suite import _composition_bound_records, _product_norms

from conftest import (
    OMEGA,
    THETA,
    contour_report,
    non_normal_operator,
    regularizer_family,
    self_adjoint_operator,
)

# an eigen-path lhs exceeds the dense one by the residual terms
# e_k (||d_l||inf + e_l) + ||d_k||inf e_l of its entries: by at most 1.2e-12
# relative over 40 random operators at n = 1..4, m = 1..3
SLACK = 1e-10


def _rho_is_symmetric(T):
    # rho of an exactly self-adjoint T is exactly symmetric
    rho = cs.rho_matrix(T)
    return bool(np.array_equal(rho, rho.T))


def _operators():
    rng = np.random.default_rng(2)
    sym = self_adjoint_operator(rng, 3, 4)
    noise = rng.standard_normal(sym.coeffs.shape)
    return {
        "diag(1,-2)": (cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
                       True),
        "jordan": (cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1), False),
        "rotation": (cs.CliffordOperator.from_real_matrix([[0.3, -1.1], [1.1, 0.3]], n=1),
                     False),
        "1+e1": (cs.CliffordOperator(1, 1, np.array([[[1.0, 1.0]]])), False),
        "a+b e1": (cs.CliffordOperator(1, 1, np.array([[[1.3, 0.1]]])), False),
        "non-normal": (non_normal_operator(rng, 3), False),
        "A+A*": (sym, True),
        "A+A* at D=64": (self_adjoint_operator(rng, 3, 8) * 0.05, True),
        "A+A* + 1e-14": (cs.CliffordOperator(3, 4, sym.coeffs + 1e-14 * noise), False),
        "A+A* + 1e-3": (cs.CliffordOperator(3, 4, sym.coeffs + 1e-3 * noise), False),
    }


@pytest.mark.parametrize("name", list(_operators()))
def test_self_adjoint_predicate_agrees_with_the_symmetry_of_rho(name):
    T, want = _operators()[name]
    basis = self_adjoint_basis(block_form(T.coeffs, T.n))
    assert (basis is not None) == _rho_is_symmetric(T) == want


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.floats(-2.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_eigen_path_bounds_the_dense_records_and_inverts_q(n, m, log_scale, seed):
    T = self_adjoint_operator(np.random.default_rng(seed), n, m) * 10.0 ** log_scale
    g, engine, c_theta, fam, values = regularizer_family(T)
    basis = engine.basis
    assert basis is not None
    eigen_records = _composition_bound_records("g", g, c_theta, *fam[:2], values,
                                               np.random.default_rng(seed))
    dense_records = _composition_bound_records("g", g, c_theta, *fam[:2], fam[2],
                                               np.random.default_rng(seed))
    for got, want in zip(eigen_records, dense_records, strict=True):
        assert got["name"] == want["name"]
        assert want["lhs"] <= got["lhs"] <= want["lhs"] * (1.0 + SLACK)
    # U diag(P) U^H against the batched inverse, within the inverse's own
    # rounding km eps cond(Q_s) ||Q_s^-1|| at each node
    r = np.exp(engine.u)
    ref = q_inverse_stack(engine._bt, np.real(engine.z), r * r)
    lam = basis.lam[None]
    q = np.abs(lam * lam - 2.0 * np.real(engine.z)[:, None, None] * lam
               + (r * r)[:, None, None])
    scale = q.max(axis=(1, 2)) / q.min(axis=(1, 2)) ** 2
    assert engine.P.shape == ref.shape[:-1]
    err = np.abs(basis.blocks(engine.P) - ref).max(axis=(1, 2, 3))
    assert np.all(err <= 16 * lam.shape[-1] * np.finfo(float).eps * scale)


@st.composite
def _diagonals_and_pairs(draw):
    """A real ``Diagonal`` (values <= 900, r <= 4, km <= 8) whose d has zeros,
    both signs and magnitudes 1e-300 to 1e300, an e >= 0 with zeros, and
    index pairs into it, up to three chunks of ``values`` pairs."""
    values, r, km = draw(st.integers(1, 900)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def magnitudes(shape):
        out = 10.0 ** rng.uniform(-300.0, 300.0, shape)
        return np.where(rng.random(shape) < zeros, 0.0, out)

    d = magnitudes((values, r, km)) * rng.choice([-1.0, 1.0], (values, r, km))
    pairs = rng.integers(0, values, (draw(st.integers(1, 3 * values + 1)), 2))
    return Diagonal(d, magnitudes((values, r))), pairs[:, 0], pairs[:, 1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_diagonals_and_pairs())
def test_product_bounds_match_the_formula_bit_for_bit(case):
    # max|a b| + e_k (||b||inf + e_l) + ||a||inf e_l per block, then the
    # largest over the blocks: the bound the records take, as products of
    # the Diagonals of each pair; inf and nan (0 * inf) included
    diag, ks, ls = case
    a, b, e_k, e_l = diag.d[ks], diag.d[ls], diag.e[ks], diag.e[ls]
    with np.errstate(over="ignore", invalid="ignore"):
        a_inf, b_inf = np.abs(a).max(axis=-1), np.abs(b).max(axis=-1)
        want = (np.abs(a * b).max(axis=-1) + e_k * (b_inf + e_l) + a_inf * e_l).max(axis=-1)
        got = _product_norms(diag, len(diag.d))(ks, ls)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_self_adjoint_engine_stores_diagonals_without_inverses(monkeypatch):
    # at n = 3, m = 8 (D = 64) P is (nodes, r, km): no inverse is taken, and
    # the build never holds a (nodes, r, km, km) stack, whose 33 MB the
    # peak would otherwise reach
    T = self_adjoint_operator(np.random.default_rng(5), 3, 8) * 0.05
    report = cs.check_bisectorial(T, OMEGA)
    inverses = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverses.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    tracemalloc.start()
    try:
        engine = cs.ContourEngine(T, report, THETA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r, km = 2, 16
    assert engine.basis is not None and inverses == []
    assert engine.P.shape == (engine.z.size, r, km)
    assert peak < engine.z.size * r * km * km * 16 / 4


def test_both_engine_paths_form_p_by_the_one_inverse_kernel(monkeypatch):
    # one q_inverse_stack per engine build: on the 1 x 1 blocks of lam for
    # the eigen path, whose P is 1 / (lam^2 - 2 s0 lam + |s|^2) bit for bit,
    # and on T's spinor blocks for the dense path
    calls = []

    def counting(bt, s0, abs2):
        calls.append(bt.shape)
        return q_inverse_stack(bt, s0, abs2)

    monkeypatch.setattr(calculus, "q_inverse_stack", counting)
    diag = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    jordan = cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1)
    engine = cs.ContourEngine(diag, contour_report(diag), THETA)
    assert engine.basis is not None and calls == [(engine.basis.lam.size, 1, 1)]
    lam, s0, r = engine.basis.lam, np.real(engine.z)[:, None, None], np.exp(engine.u)
    want = 1.0 / (lam * lam - 2.0 * s0 * lam + (r * r)[:, None, None])
    assert np.array_equal(engine.P, want)
    calls.clear()
    engine = cs.ContourEngine(jordan, contour_report(jordan), THETA)
    assert engine.basis is None and calls == [engine._bt.shape]


def _twin(X):
    """(X + X*) / 2, coefficient for coefficient: exactly self-adjoint."""
    return cs.CliffordOperator(X.n, X.m, 0.5 * (X.coeffs + X.adjoint().coeffs))


def _conjugate(rng, n, m):
    """V diag(lam) V* over R_n as the products give it, self-adjoint only to
    rounding: V the Cayley transform (I - K)(I + K)^-1 of a random
    skew-adjoint K, unitary, and real lam of modulus in [0.5, 2] with
    random signs."""
    a = cs.CliffordOperator(n, m, rng.standard_normal((m, m, 1 << n)))
    rho_k = cs.rho_matrix(a - a.adjoint())
    eye = np.eye(rho_k.shape[0])
    v = operator_from_real(np.linalg.solve(eye + rho_k, eye - rho_k), n, m)
    lam = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 2.0, size=m)
    return v @ cs.CliffordOperator.from_real_matrix(np.diag(lam), n) @ v.adjoint()


def _unitary_conjugate(rng, n, m):
    """The twin of ``_conjugate``, which takes the eigen path."""
    return _twin(_conjugate(rng, n, m))


def _move(t, eps, lam):
    """Bound on ||g(tX) - g(tS)|| for the regularizer g(s) = s / (1 + s^2),
    S = rho of an exactly self-adjoint operator with eigenvalues of modulus
    at least lam and ||rho X - S|| <= eps: g(tS) = (1 / 2t) sum_+- (S +- i/t)^-1,
    ||(S +- i/t)^-1|| <= r = |t| / sqrt(1 + lam^2 t^2), so the resolvent
    identity gives eps r^2 / (|t| (1 - eps r)); 0 when eps is 0."""
    t = np.abs(t)
    r = t / np.sqrt(1.0 + (lam * t) ** 2)
    return eps * r * r / (t * (1.0 - eps * r))


def _gap_within(got, want, claim_a, claim_b, gap, move=0.0):
    """Both claims, with the move of the operators, cover the gap between
    the paths, and so does their sum."""
    assert gap <= claim_a + move and gap <= claim_b + move
    assert np.all(np.abs(got - want) <= claim_a + claim_b + move)


def _assert_paths_agree(eigen, dense, reports, qcfg, cfg):
    """The eigen engine of S and the dense engine of X agree on the values
    of the regularizer family, on the frames of T and T* and on the f_ab
    rung at k = 1, within both claims and the move that ||rho X - rho S||
    allows (0 for one operator)."""
    rho_s = cs.rho_matrix(eigen.T)
    eps = float(np.linalg.norm(cs.rho_matrix(dense.T) - rho_s, 2))
    lam = float(np.abs(np.linalg.eigvalsh(rho_s)).min())
    assert eigen.basis is not None and dense.basis is None
    assert eigen.P.shape == eigen.z.shape + eigen.basis.lam.shape
    g = cs.regularizer(THETA)
    # values of the family at scalings off the lattice, both signs
    ts = np.array([-3.0, -0.2, 0.05, 1.0, 7.0])
    (got, trunc, disc), (want, trunc_d, disc_d) = (
        eng.evaluate_family(g, ts) for eng in (eigen, dense))
    if eps == 0.0:
        assert np.array_equal(trunc, trunc_d)
    gaps = spectral_norm(got - want)
    move = _move(ts, eps, lam)
    assert np.all(gaps <= disc + move) and np.all(gaps <= disc_d + move)
    # the frames of T and T* on the grid: with ||g(tS)|| <= 1/2, each Gram
    # term moves by at most delta (1 + delta), delta its value's move
    t, w = qcfg.grid()
    delta = _move(t, eps, lam)
    move = float(np.dot(w, delta * (1.0 + delta)))
    frames = [family_frames(g, eng, t, w, adjoint=True)[:2] for eng in (eigen, dense)]
    for fb, fb_d in zip(*frames):
        gap = np.linalg.norm(fb.theta - fb_d.theta, 2)
        assert gap <= fb.discretization_error + move
        assert gap <= fb_d.discretization_error + move
        _gap_within(fb.eigenvalues, fb_d.eigenvalues, fb.combined_error,
                    fb_d.combined_error, gap, move)
    # the f_ab ladder's rung at k = 1: the move of f(tT) dt/t over
    # a <= |t| <= b is at most 2 eps (b - a) / (1 - eps b)
    e, a, b = cs.regularizer(THETA), 0.1, 10.0
    res, res_d = (cs.f_ab_operator(e, a, b, eng.T, report, cfg, engine=eng)
                  for eng, report in zip((eigen, dense), reports))
    gap = np.linalg.norm(cs.rho_matrix(res.op) - cs.rho_matrix(res_d.op), 2)
    if eps == 0.0:
        assert res.truncation_error == res_d.truncation_error
    _gap_within(gap, 0.0, res.discretization_error, res_d.discretization_error, gap,
                2.0 * eps * (b - a) / (1.0 - eps * b))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_diagonal_path_agrees_with_the_dense_path(n, m, seed):
    # the dense engine reads the same certificate without its basis, at the
    # contour's angles, so both engines take the closed-form C
    T = _unitary_conjugate(np.random.default_rng(seed), n, m)
    qcfg = cs.default_quad_grid(T, 64)
    cfg, _ = lattice_contour(qcfg)
    reports = [contour_report(T, cfg=cfg)]
    reports.append(dataclasses.replace(reports[0], basis=None))
    eigen, dense = (cs.ContourEngine(T, report, THETA, cfg) for report in reports)
    _assert_paths_agree(eigen, dense, reports, qcfg, cfg)


def _rounding_self_adjoint():
    rng = np.random.default_rng(7)
    sym = self_adjoint_operator(rng, 2, 2)
    noisy = cs.CliffordOperator(2, 2, sym.coeffs * (1.0 + 1e-10 * rng.standard_normal(
        sym.coeffs.shape)))
    return {"A+A* + 1e-10": noisy,
            "V diag V* at n=2, m=2": _conjugate(np.random.default_rng(3), 2, 2),
            "V diag V* at n=3, m=1": _conjugate(np.random.default_rng(11), 3, 1)}


@pytest.mark.parametrize("name", list(_rounding_self_adjoint()))
def test_an_operator_self_adjoint_only_to_rounding_takes_the_dense_path(name):
    # X is not T* coefficient for coefficient, so its engine is dense; its
    # twin (X + X*) / 2 takes the eigen path, and the two agree
    X = _rounding_self_adjoint()[name]
    S = _twin(X)
    assert not np.array_equal(X.coeffs, X.adjoint().coeffs)
    qcfg = cs.default_quad_grid(S, 64)
    cfg, _ = lattice_contour(qcfg)
    reports = [contour_report(T) for T in (S, X)]
    eigen, dense = (cs.ContourEngine(T, report, THETA, cfg)
                    for T, report in zip((S, X), reports))
    _assert_paths_agree(eigen, dense, reports, qcfg, cfg)


@pytest.mark.parametrize("n", range(1, 7))
def test_self_adjoint_inputs_give_exactly_hermitian_blocks(n):
    # the traffic the exact predicate relies on: A + A*, its real scalings
    # and real diagonal operators are T* coefficient for coefficient
    rng = np.random.default_rng(n)
    for m in (1, 2, 3):
        sym = self_adjoint_operator(rng, n, m)
        diag = cs.CliffordOperator.from_real_matrix(np.diag(rng.standard_normal(m)), n)
        for T in (sym, sym * 0.05, sym * rng.uniform(-3.0, 3.0), diag):
            bt = block_form(T.coeffs, T.n)
            assert np.array_equal(bt, np.swapaxes(bt, -1, -2).conj())
            assert self_adjoint_basis(bt) is not None


@pytest.mark.parametrize("case, calls", [("diag(1,-2)", 1), ("jordan", 2)])
def test_the_certificate_decides_the_eigen_path_and_the_norm_once(case, calls, monkeypatch):
    # one certificate per operator decides the path and ||T||: T's, and for
    # the Jordan block T*'s in the adjoint stage; the engine and the grid
    # bounds read them
    calls_to = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls_to[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("self_adjoint_basis", "block_sigmas"):
        for mod in (cs.module, cs.spectrum, cs.calculus, cs.quadratic, cs.suite):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    T = _operators()[case][0]
    assert cs.run_theorem_suite(T)["passed"]
    assert calls_to == {"self_adjoint_basis": calls, "block_sigmas": calls}


def test_a_certificate_without_its_basis_takes_the_dense_path_everywhere():
    T = _operators()["diag(1,-2)"][0]
    report = contour_report(T)
    dense = dataclasses.replace(report, basis=None)
    assert dense == report and dense.c_phi_source == "sampled"
    g = cs.regularizer(THETA)
    engine = cs.ContourEngine(T, dense, THETA)
    assert engine.basis is None and GridBound(g, engine).lam is None
    assert GridBound(g, cs.ContourEngine(T, report, THETA)).lam is not None


def test_two_certificates_of_one_self_adjoint_operator_compare_and_hash_equal():
    T = _operators()["A+A*"][0]
    one, two = (cs.check_bisectorial(T, OMEGA) for _ in range(2))
    assert one.basis is not None and one.basis is not two.basis
    assert one == two and hash(one) == hash(two)
    assert one.sigmas == two.sigmas and one.injective
