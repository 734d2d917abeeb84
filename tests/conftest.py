import math

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.functions import ensure_bounded
from cliffspec.module import block_form, spectral_norm
from cliffspec.spectrum import left_resolvents, q_inverse_stack, unit_blocks


def brute_blade_product(gens_a, gens_b):
    """Multiply two basis blades given as generator index tuples.

    Independent oracle: concatenate, bubble-sort counting swaps, cancel
    adjacent equal generators with a -1 each.
    """
    word = list(gens_a) + list(gens_b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    reduced = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            sign = -sign
            i += 2
        else:
            reduced.append(word[i])
            i += 1
    return sign, tuple(reduced)


def mask_to_gens(mask):
    return tuple(i for i in range(8) if mask >> i & 1)


def gens_to_mask(gens):
    out = 0
    for g in gens:
        out |= 1 << g
    return out


def random_clifford(rng, n):
    return cs.CliffordNum(n, rng.standard_normal(1 << n))


def random_paravector(rng, n):
    return cs.Paravector(rng.standard_normal(), rng.standard_normal(n))


def random_vector(rng, n, m):
    return cs.ModuleVector(n, m, rng.standard_normal((m, 1 << n)))


def random_operator(rng, n, m):
    return cs.CliffordOperator(n, m, rng.standard_normal((m, m, 1 << n)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def diag12():
    return cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, 2.0]], n=1)


@pytest.fixture
def diag1m2():
    return cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)


@pytest.fixture
def jordan():
    return cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1)


@pytest.fixture
def e1_id():
    return cs.CliffordOperator(1, 1, np.array([[[0.0, 1.0]]]))


OMEGA = math.pi / 12
THETA = math.pi / 4


def contour_report(T, omega=OMEGA, theta=THETA, cfg=None, phis=None):
    """check_bisectorial at ``phis`` (the default ray angles if None) and at
    the angles of the contour of ``cfg`` (``ContourConfig.contour_angles``),
    which an engine on that contour reads: C at phi - a and at phi."""
    angles = (cfg or cs.ContourConfig()).contour_angles(omega, theta)
    phis = cs.RaySampling().resolved_phis(omega) if phis is None else tuple(phis)
    return cs.check_bisectorial(T, omega, cs.RaySampling(phis=phis + angles))


def unit_e12(n):
    """The slice unit (e_1 + e_2)/sqrt 2 of R_n, n >= 2."""
    v = np.zeros(n)
    v[:2] = 1.0 / math.sqrt(2.0)
    return cs.Paravector(0.0, v)


def non_normal_operator(rng, n):
    """Upper-triangular 2 x 2 over R_n with diagonal 1 + 0.2 e1 and -2 + 0.3 e2:
    non-normal, with spectrum inside the double sector of angle OMEGA."""
    coeffs = np.zeros((2, 2, 1 << n))
    coeffs[0, 0, 0], coeffs[0, 0, 1] = 1.0, 0.2
    coeffs[1, 1, 0], coeffs[1, 1, 2] = -2.0, 0.3
    coeffs[0, 1] = rng.standard_normal(1 << n)
    return cs.CliffordOperator(n, 2, coeffs)


def self_adjoint_operator(rng, n, m):
    """A + A* over R_n with standard normal m x m Clifford entries in A:
    self-adjoint, so its spectrum is real and inside every double sector."""
    A = random_operator(rng, n, m)
    return cs.CliffordOperator(n, m, A.coeffs + A.adjoint().coeffs)


def regularizer_family(T, omega=None, theta=None, quad_nodes=100):
    """The frame family of the regularizer and what the composition records
    take besides it, built as ``run_theorem_suite`` builds them:
    (g, engine, C at theta, family, values of the family), the family as
    (t, w, blocks, truncation and discretization estimates) and its values
    as ``ContourEngine.evaluate_blocks`` returns them: the blocks, or for
    self-adjoint T their ``Diagonal``."""
    omega = OMEGA if omega is None else omega
    theta = THETA if theta is None else theta
    g = ensure_bounded(cs.resolve_function({"name": "regularizer"}, theta))
    bisector = contour_report(T, omega, theta, phis=(theta,))
    qcfg = cs.default_quad_grid(T, quad_nodes)
    cfg, _ = cs.lattice_contour(qcfg, cs.ContourConfig(nodes=500))
    engine = cs.ContourEngine(T, bisector, theta, cfg)
    t_grid, w_grid = qcfg.grid()
    values, truncs, discs = engine.evaluate_blocks(g, t_grid)
    fam = (t_grid, w_grid, engine.dense_blocks(values), truncs, discs)
    return g, engine, bisector.c_at(theta), fam, values


def composition_nodes(rng, t_grid):
    """The grid indices of the random parameters of the uniform and integral
    composition records, drawn from ``rng`` as the records draw them:
    (pairs of shape (UNIFORM_PAIRS, 2), taus of shape (INTEGRAL_TAUS,)).

    Each draw sign * 10^u, u uniform in (-3, 3) for the pairs and (-2, 2) for
    tau, is taken in units of the centre |t| of the grid (+t, -t) and goes to
    the node of that sign nearest to it in log |t| among the nodes within
    three decades of the centre.  ``rng`` is left where the square kernel
    draws its window.
    """
    from cliffspec.suite import INTEGRAL_TAUS, UNIFORM_PAIRS

    per_sign = t_grid.size // 2
    logs = np.log(t_grid[:per_sign])
    centre = logs[per_sign // 2]
    window = np.flatnonzero(np.abs(logs - centre) <= 3.0 * math.log(10.0) * (1.0 + 1e-9))

    def nodes(u, signs):
        target = centre + u.ravel() * math.log(10.0)
        j = window[np.argmin(np.abs(logs[window][None, :] - target[:, None]), axis=1)]
        return np.where(signs.ravel() < 0, j + per_sign, j).reshape(u.shape)

    u = rng.uniform(-3, 3, size=(UNIFORM_PAIRS, 2))
    pairs = nodes(u, rng.choice([-1.0, 1.0], size=(UNIFORM_PAIRS, 2)))
    u = rng.uniform(-2, 2, size=INTEGRAL_TAUS)
    taus = nodes(u, rng.choice([-1.0, 1.0], size=INTEGRAL_TAUS))
    return pairs, taus


def ray_samples(T, phi):
    """Every sample of check_bisectorial at angle phi, written out: the radii
    |s| of the 200 log-spaced radii on the rays at +phi (both signs) and
    |s| ||S_L^-1(s, T)|| there and at the conjugates, shape (2, 400), from
    one inverse of Q_s per node and ``spectral_norm`` on the blocks."""
    bt = block_form(T.coeffs, T.n)
    scale = max(1.0, float(np.linalg.svd(bt, compute_uv=False)[:, 0].max()))
    radii = scale * np.logspace(-4.0, 4.0, 200)
    s0 = np.concatenate([radii * math.cos(phi), -radii * math.cos(phi)])
    y = np.concatenate([radii * math.sin(phi), -radii * math.sin(phi)])
    radius = np.tile(radii, 2)
    qinv = q_inverse_stack(bt, s0, radius * radius)
    bj = unit_blocks(cs.unit_imag(T.n), T.m)
    samples = [radius * spectral_norm(left_resolvents(bt, qinv, s0, branch * y, bj)).max(axis=1)
               for branch in (1.0, -1.0)]
    return radius, np.array(samples)


def full_c_phi_table(T, phis):
    """(phi, C) with C the maximum of all 800 samples of each angle."""
    return tuple((float(phi), float(ray_samples(T, phi)[1].max())) for phi in phis)


def four_ray_sum(f, T, eng, ts, unit, nodes):
    """f(tT) as the trapezoid sum with ``nodes`` nodes u = log r on each of
    the four rays of the engine's contour, taken in the slice of the unit J:
    left_s_resolvent at every node z and at its conjugate, and the slice
    scalar c of each term applied as Re(c) A + Im(c) A rho(J)."""
    u = np.linspace(eng.cfg.u_min, eng.cfg.u_max, nodes)
    w = np.full(nodes, u[1] - u[0])
    w[0] = w[-1] = 0.5 * (u[1] - u[0])
    r = np.exp(u)
    rho_j = cs.rho_matrix(cs.CliffordOperator.scalar_mul(unit, T.m))
    terms = []
    for branch in (1.0, -1.0):
        for sign in (1.0, -1.0):
            rot = np.exp(1j * branch * eng.phi)
            for zk, wk, rk in zip(sign * r * rot, w, r):
                s = cs.Paravector(zk.real, zk.imag * unit.svec)
                a = cs.rho_matrix(cs.left_s_resolvent(s, T))
                terms.append((zk, branch * sign * rot * 1j * wk * rk / (2 * math.pi), a))
    out = []
    for t in ts:
        total = np.zeros_like(terms[0][2])
        for zk, weight, a in terms:
            c = complex(f.eval_complex(t * zk)) * weight
            total += c.real * a + c.imag * (a @ rho_j)
        out.append(total)
    return np.array(out)


@pytest.fixture(scope="session")
def reports():
    """Bisectoriality certificates for the three calculus test operators."""
    ops = {
        "diag12": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, 2.0]], n=1),
        "diag1m2": cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1),
        "jordan": cs.CliffordOperator.from_real_matrix([[1.0, 1.0], [0.0, 1.0]], n=1),
    }
    return {k: (T, contour_report(T)) for k, T in ops.items()}
