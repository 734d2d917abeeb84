import math

import numpy as np
import pytest

import cliffspec as cs


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
    return {k: (T, cs.check_bisectorial(T, OMEGA)) for k, T in ops.items()}
