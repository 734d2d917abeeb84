"""Quadrature grids and deterministic summation.

Every log-grid quadrature in the package comes from here: the composite
trapezoid rule on a uniform grid, and Gauss-Legendre panels for finite
intervals.  Node sums use a fixed-order pairwise reduction.
"""

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
        if n % 2:
            arr = np.concatenate([folded, arr[n - 1:n]], axis=0)
        else:
            arr = folded
        n = arr.shape[0]
    return arr[0]


def trapezoid_grid(lo, hi, n):
    """Composite trapezoid rule: n >= 2 uniform nodes on [lo, hi] and weights."""
    u = np.linspace(lo, hi, n)
    h = u[1] - u[0]
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return u, w


def gl_panel_grid(u_lo, u_hi, points=12):
    """Gauss-Legendre rule of ``points`` nodes on each of at least two equal
    panels of width at most 0.5 on [u_lo, u_hi], nodes listed panel by panel;
    spectral accuracy on finite intervals where the trapezoid rule would pay
    O(h^2) endpoint terms."""
    n_panels = max(2, int(math.ceil((u_hi - u_lo) / 0.5)))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(points)
    us, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        us.append(mid + rad * x)
        ws.append(rad * w)
    return np.concatenate(us), np.concatenate(ws)
