"""Brute-force oracles, independent of the library implementations.

Every nontrivial expected value in the test suite is either a frozen literal
produced by one of these oracles or a direct call to one of them.  The
oracles favor obviousness over speed: dense grids, exhaustive enumeration,
and textbook formulas written the slow way.  None of them import package
internals beyond plain containers, so a bug in the library cannot leak into
its own expected values.
"""

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Quantiles and tail averages
# ---------------------------------------------------------------------------

def oracle_var(values, probs, beta):
    """Smallest x among the atoms with P(X > x) <= 1 - beta.

    Enumerates the survival function directly over the support; beta = 1
    returns the maximum atom.
    """
    pairs = sorted(zip(values, probs))
    candidates = []
    for v, _ in pairs:
        survival = sum(p for w, p in pairs if w > v + 1e-15)
        if survival <= 1.0 - beta + 1e-12:
            candidates.append(v)
    return min(candidates)


def oracle_es(values, probs, beta, steps=200_001):
    """Riemann-sum tail average of the quantile function over (beta, 1).

    Midpoint rule on a dense level grid; accurate to ~(1-beta)/steps times
    the value spread, good enough to pin closed-form answers to ~1e-4.
    """
    ts = beta + (np.arange(steps) + 0.5) * (1.0 - beta) / steps
    vals = [oracle_var(values, probs, t) for t in ts]
    return float(np.mean(vals))


def oracle_mean(values, probs):
    return math.fsum(v * p for v, p in zip(values, probs))


# ---------------------------------------------------------------------------
# Utility-based shortfall
# ---------------------------------------------------------------------------

def pl_utility(knots):
    """Piecewise-linear function through ``knots`` extended linearly outside."""
    xs = [float(x) for x, _ in knots]
    ys = [float(y) for _, y in knots]

    def u(x):
        if x <= xs[0]:
            s = (ys[1] - ys[0]) / (xs[1] - xs[0])
            return ys[0] + s * (x - xs[0])
        if x >= xs[-1]:
            s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return ys[-1] + s * (x - xs[-1])
        for i in range(len(xs) - 1):
            if xs[i] <= x <= xs[i + 1]:
                s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                # from the nearer knot, so that x close to a knot keeps its
                # low digits
                if x - xs[i] <= xs[i + 1] - x:
                    return ys[i] + s * (x - xs[i])
                return ys[i + 1] + s * (x - xs[i + 1])
        raise AssertionError("unreachable")

    return u


def oracle_shortfall(values, probs, knots, tol=0.0):
    """Root of m -> E[u(m - X)] by exhaustive segment walking.

    The expectation is piecewise linear and strictly increasing in m, so the
    root lies on one of the segments delimited by m = x_i + knot_j (plus the
    extension regions); solve each candidate segment linearly.  The first
    segment whose ends bracket zero within ``tol`` holds the root; the
    default brackets by exact sign, which does not depend on the scale.
    """
    u = pl_utility(knots)

    def expectation(m):
        return math.fsum(p * u(m - v) for v, p in zip(values, probs))

    kinks = sorted({float(v) + float(kx) for v in values for kx, _ in knots})
    lo, hi = kinks[0] - 1.0, kinks[-1] + 1.0
    grid = [lo] + kinks + [hi]
    # Expand outward until the root is bracketed.
    while expectation(grid[0]) > 0:
        grid.insert(0, grid[0] - 2.0 * (grid[-1] - grid[0] + 1.0))
    while expectation(grid[-1]) < 0:
        grid.append(grid[-1] + 2.0 * (grid[-1] - grid[0] + 1.0))
    for a, b in zip(grid, grid[1:]):
        ea, eb = expectation(a), expectation(b)
        if ea <= tol and eb >= -tol:
            if abs(eb - ea) <= tol:
                return a if abs(ea) <= tol else b
            return a + (b - a) * (0.0 - ea) / (eb - ea)
    raise AssertionError("root not bracketed")


# ---------------------------------------------------------------------------
# Choquet integral via the layer-cake formula
# ---------------------------------------------------------------------------

def oracle_choquet(member_values, capacity_of):
    """Choquet integral by threshold integration, not by sorting.

    integral = int_0^inf mu({v_i >= t}) dt + int_{-inf}^0 (mu({v_i >= t}) - 1) dt
    with mu given as ``capacity_of(mask)``.  Both integrands are step
    functions with jumps only at member values, so the integral is a finite
    sum over the threshold cells.
    """
    vals = [float(v) for v in member_values]
    thresholds = sorted(set(vals) | {0.0})

    def mu_at(t):
        mask = 0
        for i, v in enumerate(vals):
            if v >= t - 1e-15:
                mask |= 1 << i
        return capacity_of(mask)

    total = 0.0
    # Positive part: cells of [0, max value].
    pos = [t for t in thresholds if t >= 0.0]
    for a, b in zip(pos, pos[1:]):
        total += mu_at(0.5 * (a + b)) * (b - a)
    # Negative part: cells of [min value, 0].
    neg = [t for t in thresholds if t <= 0.0]
    for a, b in zip(neg, neg[1:]):
        total += (mu_at(0.5 * (a + b)) - 1.0) * (b - a)
    return total


# ---------------------------------------------------------------------------
# Inf-convolution by grid search
# ---------------------------------------------------------------------------

def oracle_infconv_pair(rho1, rho2, x_values, box=4.0, step=0.01):
    """Exact-to-grid optimum of rho1(Y) + rho2(X - Y) for two members.

    Both members must be translation invariant: the objective is then
    constant along Y -> Y + c, so the search fixes the last coordinate of Y
    at 0 and grids the remaining ones over [-box, box].  ``rho1``/``rho2``
    take plain value tuples.
    """
    x = np.asarray(x_values, dtype=float)
    n = x.size
    axis = np.arange(-box, box + step / 2, step)
    best = math.inf
    best_y = None
    for free in itertools.product(axis, repeat=n - 1):
        y = np.array(list(free) + [0.0])
        total = rho1(tuple(y)) + rho2(tuple(x - y))
        if total < best - 1e-15:
            best = total
            best_y = y
    return best, best_y


def oracle_infconv_pair_vectorized(rho1_batch, rho2_batch, x_values, box=4.0, step=0.01):
    """Same search as ``oracle_infconv_pair`` with batched member evaluation.

    ``rho*_batch`` map an (m, n) array of profiles to m values.  Needed to
    keep the 0.01-step grid affordable at n = 3 (641k candidates).
    """
    x = np.asarray(x_values, dtype=float)
    n = x.size
    axis = np.arange(-box, box + step / 2, step)
    grids = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=1)
    ys = np.concatenate([free, np.zeros((free.shape[0], 1))], axis=1)
    totals = rho1_batch(ys) + rho2_batch(x[None, :] - ys)
    i = int(np.argmin(totals))
    return float(totals[i]), ys[i]


def batch_es_uniform(beta):
    """Vectorized ES at level beta for equiprobable rows of an (m, n) array."""

    def ev(rows):
        rows = np.sort(np.asarray(rows, dtype=float), axis=1)
        n = rows.shape[1]
        cum = np.arange(1, n + 1) / n
        prev = np.arange(0, n) / n
        weights = np.minimum(cum, 1.0) - np.maximum(prev, beta)
        weights = np.clip(weights, 0.0, None)
        return rows @ weights / (1.0 - beta)

    return ev


def batch_worst_case():
    def ev(rows):
        return np.max(np.asarray(rows, dtype=float), axis=1)

    return ev


# ---------------------------------------------------------------------------
# Convex-envelope evaluation by dense alpha grid
# ---------------------------------------------------------------------------

def oracle_envelope_value(x_values, residual_values, homogeneous, grid_step=1e-4, alpha_max=64.0):
    """min over alpha of max_state(x - alpha * residual) on a dense grid.

    Segment case scans [0, 1]; homogeneous case scans [0, alpha_max], which
    is ample for residuals whose nonpositive component forces the minimum to
    sit at moderate alpha.
    """
    x = np.asarray(x_values, dtype=float)
    w = np.asarray(residual_values, dtype=float)
    top = alpha_max if homogeneous else 1.0
    alphas = np.arange(0.0, top + grid_step / 2, grid_step)
    f = np.max(x[None, :] - alphas[:, None] * w[None, :], axis=1)
    return float(f.min())


# ---------------------------------------------------------------------------
# Stochastic orders via concave utilities
# ---------------------------------------------------------------------------

def random_concave_utilities(count, seed, kink_range=(-8.0, 8.0), max_kinks=6):
    """Increasing concave piecewise-linear utilities on wealth.

    Mix of single-kink stop-loss shapes u(w) = min(w - t, 0) (these
    characterize the second-order comparison on their own) and multi-kink
    utilities with decreasing positive slopes.  Returns a list of callables.
    """
    rng = np.random.default_rng(seed)
    lo, hi = kink_range
    utilities = []
    for i in range(count):
        if i % 2 == 0:
            t = rng.uniform(lo, hi)
            utilities.append(lambda w, t=t: min(w - t, 0.0))
        else:
            k = int(rng.integers(2, max_kinks + 1))
            kinks = np.sort(rng.uniform(lo, hi, size=k))
            slopes = np.sort(rng.uniform(0.05, 3.0, size=k + 1))[::-1]
            utilities.append(_concave_pl(kinks, slopes))
    return utilities


def _concave_pl(kinks, slopes):
    kinks = np.asarray(kinks, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    # Anchor u(kinks[0]) = 0; only differences of expectations matter.
    heights = np.zeros(kinks.size)
    for j in range(1, kinks.size):
        heights[j] = heights[j - 1] + slopes[j] * (kinks[j] - kinks[j - 1])

    def u(w):
        if w <= kinks[0]:
            return slopes[0] * (w - kinks[0])
        if w >= kinks[-1]:
            return heights[-1] + slopes[-1] * (w - kinks[-1])
        j = int(np.searchsorted(kinks, w)) - 1
        return heights[j] + slopes[j + 1] * (w - kinks[j])

    return u


def oracle_ssd(x_values, x_probs, y_values, y_probs, utilities, tol=1e-9):
    """True iff every utility prefers losing x to losing y.

    The comparison E[u(-X)] >= E[u(-Y)] over increasing concave u is the
    defining form of the second-order loss comparison; a finite utility
    family yields a necessary condition that the tests use as a cross-check.
    """
    for u in utilities:
        ex = math.fsum(p * u(-v) for v, p in zip(x_values, x_probs))
        ey = math.fsum(p * u(-v) for v, p in zip(y_values, y_probs))
        if ex < ey - tol:
            return False
    return True


def oracle_fsd(x_values, x_probs, y_values, y_probs, tol=1e-12):
    """CDF comparison: F_x(t) >= F_y(t) at every merged support point."""
    support = sorted(set(x_values) | set(y_values))
    for t in support:
        fx = math.fsum(p for v, p in zip(x_values, x_probs) if v <= t + 1e-15)
        fy = math.fsum(p for v, p in zip(y_values, y_probs) if v <= t + 1e-15)
        if fx < fy - tol:
            return False
    return True


def oracle_stop_loss_ssd(x_values, x_probs, y_values, y_probs, tol=1e-9):
    """Exact second-order check via stop-loss premiums E[(X - t)+].

    The premium difference is piecewise linear in t with kinks only at atom
    values, so comparison at merged atoms (plus one point beyond each end)
    is exact.
    """
    support = sorted(set(x_values) | set(y_values))
    ts = [support[0] - 1.0] + support + [support[-1] + 1.0]
    for t in ts:
        px = math.fsum(p * max(v - t, 0.0) for v, p in zip(x_values, x_probs))
        py = math.fsum(p * max(v - t, 0.0) for v, p in zip(y_values, y_probs))
        if px > py + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Law-invariant envelope suprema by dense level grid
# ---------------------------------------------------------------------------

def oracle_curve_sup(curve_x, curve_g, levels):
    """max over the sampled levels of curve_x(a) - curve_g(a)."""
    return max(curve_x(a) - curve_g(a) for a in levels)


def dense_levels(step=1e-4):
    return np.arange(step, 1.0, step)
