"""Reference values for the benchmark's output checks.

Written with plain numpy and the brute-force oracles in ``tests/oracles.py``,
never with the library's own routines, so a defect in the library cannot leak
into the value it is checked against.  The oracles are used where they are
affordable; at 10,000 states their O(n^2) quantile search is not, so the
sort/cumsum forms below take over.
"""

import math

import numpy as np

import oracles

# Relative tolerance of every numeric check; it is scaled by the largest
# absolute input value so that it follows the units of the data.
REL_TOL = 1e-9
# Above this state count the O(n^2) oracle quantile search is too slow.
ORACLE_MAX_N = 1024


def tol_for(*arrays):
    return REL_TOL * max(float(np.max(np.abs(a))) for a in arrays)


def close(got, want, tol):
    return abs(float(got) - float(want)) <= tol


def _law(values, probs):
    order = np.argsort(values, kind="stable")
    return np.asarray(values, float)[order], np.asarray(probs, float)[order]


def var(values, probs, beta):
    if len(values) <= ORACLE_MAX_N:
        return oracles.oracle_var(list(values), list(probs), beta)
    v, p = _law(values, probs)
    cum = np.cumsum(p)
    return float(v[min(int(np.searchsorted(cum, beta - 1e-12)), v.size - 1)])


def es_curve(values, probs, alphas):
    """ES at each level in ``alphas`` (all in (0, 1)), from the piecewise
    linear integral of the quantile function."""
    v, p = _law(values, probs)
    levels = np.concatenate(([0.0], np.cumsum(p)))
    area = np.concatenate(([0.0], np.cumsum(v * p)))
    a = np.asarray(alphas, float)
    below = np.interp(a, levels, area)
    return (area[-1] - below) / (1.0 - a)


def es(values, probs, beta):
    return float(es_curve(values, probs, [beta])[0])


def mean(values, probs):
    return oracles.oracle_mean(values, probs)


def entropic(values, probs, lam):
    v = np.asarray(values, float)
    m = float(v.max())
    s = math.fsum((np.asarray(probs, float) * np.exp((v - m) / lam)).tolist())
    return m + lam * math.log(s)


def shortfall(values, probs, knots):
    """Root of m -> E[u(m - X)] for a piecewise-linear utility.

    The expectation is piecewise linear in m with kinks at x_i + knot_j, so
    a binary search over the sorted kinks brackets the root and one linear
    solve finishes it exactly.
    """
    xs = np.array([k[0] for k in knots], float)
    ys = np.array([k[1] for k in knots], float)
    lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    v = np.asarray(values, float)
    p = np.asarray(probs, float)

    def u(w):
        inner = np.interp(w, xs, ys)
        inner = np.where(w < xs[0], ys[0] + lo_slope * (w - xs[0]), inner)
        return np.where(w > xs[-1], ys[-1] + hi_slope * (w - xs[-1]), inner)

    def expectation(m):
        return float(p @ u(m - v))

    # The root lies in [min x, max x]: u(m - X) <= 0 at the lower end and
    # >= 0 at the upper end.
    lo_v, hi_v = float(v.min()), float(v.max())
    kinks = (v[:, None] + xs[None, :]).ravel()
    grid = np.unique(np.concatenate(([lo_v, hi_v], kinks[(kinks > lo_v) & (kinks < hi_v)])))
    if expectation(grid[0]) >= 0.0:
        return float(grid[0])
    lo, hi = 0, grid.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if expectation(grid[mid]) >= 0.0:
            hi = mid
        else:
            lo = mid
    fa, fb = expectation(grid[lo]), expectation(grid[hi])
    return float(grid[lo] + (grid[hi] - grid[lo]) * (0.0 - fa) / (fb - fa))


def lvar(values, probs, steps):
    return max(var(values, probs, a) - t for t, a in steps)


def choquet_median3(member_values):
    """Choquet integral against mu(J) = 1 iff |J| >= 2 (median of three)."""
    return oracles.oracle_choquet(member_values, lambda mask: float(bin(mask).count("1") >= 2))


def blend(member_values, weight):
    return weight * max(member_values) + (1.0 - weight) * min(member_values)


def fsd(x, px, y, py):
    return oracles.oracle_fsd(list(x), list(px), list(y), list(py))


def ssd(x, px, y, py):
    return oracles.oracle_stop_loss_ssd(list(x), list(px), list(y), list(py))


def es_envelope(x, px, g, pg, dense=2000):
    """sup over levels of ES_a(x) - ES_a(g), generator law (g, pg).

    Evaluated at every cumulative breakpoint of both laws, on a dense level
    grid, and at the two end limits (mean gap at 0+, max gap at 1-).
    """
    inner = np.concatenate(
        (np.cumsum(_law(x, px)[1])[:-1], np.cumsum(_law(g, pg)[1])[:-1],
         (np.arange(dense) + 0.5) / dense)
    )
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    gaps = es_curve(x, px, inner) - es_curve(g, pg, inner)
    ends = [mean(x, px) - mean(g, pg), float(np.max(x) - np.max(g))]
    return max(float(gaps.max()), *ends)
