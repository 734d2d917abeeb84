"""Quadrature grids and deterministic summation.

Every log-grid quadrature in the package comes from here: the composite
trapezoid rule on a uniform grid and the bound on its error for integrands
analytic in a strip, Gauss-Legendre panels for finite intervals, and the
Gauss-Legendre cell rule of the f_ab lattice.  Node sums use a fixed-order
pairwise reduction.
"""

import functools
import math

import numpy as np


def pairwise_sum(values):
    """Sum an array along its first axis with a fixed-order pairwise tree.

    The reduction order depends only on the input length, so results are
    reproducible regardless of threading or chunking in the caller.
    """
    arr = np.asarray(values)
    n = arr.shape[0]
    if n == 0:
        return np.zeros(arr.shape[1:], dtype=arr.dtype)
    while n > 1:
        half = n // 2
        folded = arr[0:2 * half:2] + arr[1:2 * half:2]
        arr = np.concatenate([folded, arr[n - 1:n]], axis=0) if n % 2 else folded
        n = arr.shape[0]
    return arr[0]


def trapezoid_grid(lo, hi, n):
    """Composite trapezoid rule: n >= 2 uniform nodes on [lo, hi] and weights."""
    u = np.linspace(lo, hi, n)
    h = u[1] - u[0]
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return u, w


def trapezoid_error(a, h, m):
    """2 m / (e^(2 pi a / h) - 1), a bound on the error of the trapezoid rule
    of step h on the real line for an integrand analytic in the strip
    |Im u| < a, decaying along it, whose modulus integrates along each line
    of the strip to at most m (Trefethen and Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56, 2014, Theorem 5.1); for
    arrays m too."""
    with np.errstate(over="ignore"):    # an overflowed exponential is an error of 0
        return 2.0 * m / np.expm1(2.0 * math.pi * a / h)


def gl_panel_grid(u_lo, u_hi, points=12):
    """Gauss-Legendre rule of ``points`` nodes on each of at least two equal
    panels of width at most 0.5 on [u_lo, u_hi], nodes listed panel by panel;
    spectral accuracy on finite intervals where the trapezoid rule would pay
    O(h^2) endpoint terms."""
    n_panels = max(2, int(math.ceil((u_hi - u_lo) / 0.5)))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    x, wx = _leggauss(points)
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * (0.5 * (x + 1.0))).ravel(), (width * (0.5 * wx)).ravel()


@functools.cache
def _leggauss(points):
    """``leggauss(points)``: nodes and weights on [-1, 1], once per count, read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _legvander(points):
    """``legvander`` at the ``_leggauss`` nodes, once per count, read-only."""
    at_x = np.polynomial.legendre.legvander(_leggauss(points)[0], points - 1)
    at_x.flags.writeable = False
    return at_x


def gl_cell_rule(points, fractions):
    """Gauss-Legendre nodes s and weights w of ``points`` points on [0, 1],
    and for each of the array ``fractions`` the weights (..., points) that
    integrate the interpolant through those nodes over [0, fraction]: one
    set of samples per cell gives the integral over the cell and over any
    leading part of it."""
    x, wx = _leggauss(points)
    at_x = _legvander(points)
    end = 2.0 * np.asarray(fractions, dtype=float) - 1.0
    at_end = np.polynomial.legendre.legvander(end, points).reshape(*end.shape, points + 1)
    # the interpolant's Legendre coefficients are w_i (m + 1/2) P_m(x_i), and
    # (m + 1/2) times the integral of P_m from -1 is (P_{m+1} - P_{m-1}) / 2
    # at the end point, (end + 1) / 2 for m = 0
    integrals = np.concatenate([0.5 * (end[..., None] + 1.0),
                                0.5 * (at_end[..., 2:] - at_end[..., :-2])], axis=-1)
    return 0.5 * (x + 1.0), 0.5 * wx, 0.5 * wx * (integrals @ at_x.T)
