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
from fractions import Fraction

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


def oracle_entropic(values, probs, lam):
    """Certain equivalent ``lam * log E[exp(X / lam)]``, the textbook way."""
    return lam * math.log(math.fsum(p * math.exp(v / lam) for v, p in zip(values, probs)))


# The law layer's former array formulas, kept as bit-for-bit references.
# They read a law's sorted atom ``values`` and running ``cum`` masses as
# float arrays and raise ValueError for a level outside the domain.

def array_var(values, cum, beta):
    """VaR by ``np.searchsorted``: the first atom whose running mass
    reaches beta, with a 1e-12 slack; beta in (0, 1]."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("var level %r" % beta)
    idx = int(np.searchsorted(cum, beta - 1e-12, side="left"))
    return float(values[min(idx, len(values) - 1)])


def array_es(values, cum, beta):
    """ES as the exactly rounded sum of each atom times the overlap of its
    cell (cum[i-1], cum[i]] with (beta, 1), clipped at 0; beta in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("es level %r" % beta)
    lows = np.concatenate(([0.0], cum[:-1]))
    highs = np.minimum(cum, 1.0)
    overlap = np.clip(highs - np.maximum(lows, beta), 0.0, None)
    return float(math.fsum((values * overlap).tolist()) / (1.0 - beta))


def array_lvar(values, cum, times, levels):
    """LVaR as the largest ``array_var`` at a step's level minus its time."""
    return max(array_var(values, cum, a) - t for t, a in zip(times, levels))


def fsum_es_levels(values, cum, levels):
    """ES at each level of a list in (0, 1), one ``math.fsum`` per level
    over the products of the cells wholly above it and the partial product
    of the cell holding it: O(n) per level."""
    lows = np.concatenate(([0.0], cum[:-1]))
    highs = np.minimum(cum, 1.0)
    full = (values * np.clip(highs - lows, 0.0, None)).tolist()
    out = []
    for b in levels:
        k = int(np.searchsorted(lows, b, side="left")) - 1
        partial = float(values[k]) * max(float(highs[k]) - b, 0.0)
        out.append(math.fsum(full[k + 1:] + [partial]) / (1.0 - b))
    return out


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


def oracle_star_compatible(knots, tol=1e-9):
    """Whether u(x)/x is nonincreasing from left to right on each half-line.

    Sampled through ``pl_utility`` at every multiple of 1/8 out to twice
    the outermost knot, plus x = -1e6 and x = 1e6 for the tails.  Between
    two samples on one linear piece the ratio is monotone, so for knots
    on that grid the samples decide it.
    """
    u = pl_utility(knots)
    reach = 2.0 * max(abs(float(x)) for x, _ in knots) + 1.0
    grid = [k / 8.0 for k in range(1, int(8 * reach) + 1)]
    for xs in ([-1e6] + [-g for g in reversed(grid)], grid + [1e6]):
        ratios = [u(x) / x for x in xs]
        if any(b > a + tol for a, b in zip(ratios, ratios[1:])):
            return False
    return True


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


# The library's former shortfall, a float bisection of m -> E[u(m - X)] on
# a law ``d`` with a ``Utility`` ``u``, kept as the bit-for-bit reference
# of the replayed search that replaced it.

_SHORTFALL_TOL = 1e-10


def _bisect(pred, lo, hi, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_shortfall(d, u):
    """inf{m : E[u(m - X)] >= 0} by bracketed float bisection, stopping at
    width 1e-10 times min(1, largest atom magnitude) or at the spacing of
    doubles near the root."""

    def acceptable(m):
        return float(np.dot(d.probs, u(m - d.values))) >= 0.0

    lo, hi = float(d.values[0]), float(d.values[-1])
    if acceptable(lo):
        return lo
    scale = max(-lo, hi)
    return _bisect(acceptable, lo, hi, _SHORTFALL_TOL * min(1.0, scale))


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
# Inf-convolution: box support functions and grid search
# ---------------------------------------------------------------------------

def oracle_box_support(x, p, u):
    """Largest E_Q[x] over probability vectors Q cut by Q_s <= u_s.

    The greedy fill: pour the mass of ``p`` onto the largest losses
    first, each state up to its cap ``u_s`` (a float, a Fraction, or inf
    for no cap).  Exact rational arithmetic, rounded once at the end.
    With caps p_s / (1 - beta) this is ES_beta, with caps p_s the mean,
    and with no caps the worst case.
    """
    left = sum(map(Fraction, p))
    total = Fraction(0)
    for s in sorted(range(len(x)), key=lambda s: -x[s]):
        q = left if u[s] >= left else Fraction(u[s])
        total += q * Fraction(x[s])
        left -= q
    return float(total)


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


def loop_envelope_evaluate(x_values, residual_values, homogeneous):
    """The envelope charge by scoring every candidate, O(n**3):
    a = 0, a = 1 (segment only), then each finite crossing of the lines of
    states i < j in row-major order with r_i != r_j, a >= 0 and (segment
    only) a <= 1; each scored as ``np.max(x - a * r)``; the first minimum
    returned.  On a cone, a flat state's x also counts when its flat
    piece starts at a crossing that overflows (some falling line crosses
    it at a = inf) and no rising line cuts it off at a finite a: f is that
    x from a point past the largest double on."""
    xv = np.asarray(x_values, dtype=float)
    r = np.asarray(residual_values, dtype=float)
    # crossings on Python floats, which overflow to inf without a warning
    xs, rs = xv.tolist(), r.tolist()
    n = xv.size
    candidates = [0.0]
    if not homogeneous:
        candidates.append(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            dr = rs[i] - rs[j]
            if dr == 0.0:
                continue
            a = (xs[i] - xs[j]) / dr
            if not math.isfinite(a) or a < 0.0:
                continue
            if not homogeneous and a > 1.0:
                continue
            candidates.append(a)
    values = [float(np.max(xv - a * r)) for a in candidates]
    if homogeneous:
        flat = [v for v, w in zip(xs, rs) if w == 0.0]
        for j in range(n):
            if rs[j] != 0.0 or xs[j] < max(flat):
                continue  # not flat, or another flat line lies above it
            start = [(xs[i] - xs[j]) / rs[i] for i in range(n) if rs[i] > 0.0]
            end = [(xs[i] - xs[j]) / rs[i] for i in range(n) if rs[i] < 0.0]
            if math.inf in start and min(end, default=math.inf) == math.inf:
                values.append(xs[j])
    return min(values)


def exact_envelope_value(x_values, residual_values, homogeneous):
    """The envelope charge in exact rational arithmetic: the least
    max_state(x - a * residual) over a = 0, a = 1 (segment only) and every
    crossing of two lines in range, each a ``Fraction``.  Inputs must be
    finite, and a cone member needs a residual with some entry <= 0."""
    xs = [Fraction(v) for v in x_values]
    rs = [Fraction(v) for v in residual_values]
    candidates = [Fraction(0)] if homogeneous else [Fraction(0), Fraction(1)]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if rs[i] != rs[j]:
                a = (xs[i] - xs[j]) / (rs[i] - rs[j])
                if a >= 0 and (homogeneous or a <= 1):
                    candidates.append(a)
    return min(max(v - a * w for v, w in zip(xs, rs)) for a in candidates)


def box_penalty(q, p, level, tol=1e-12):
    """Dual penalty of the mean (level 0), ES at ``level`` and the worst
    case (level 1): 0 when sum(q) is 1 and every q_s <= p_s / (1 - level)
    (no cut at level 1), each within ``tol``, else inf.  Decided in exact
    rational arithmetic."""
    qs, ps, slack = [Fraction(a) for a in q], [Fraction(b) for b in p], Fraction(tol)
    if abs(sum(qs) - 1) > slack:
        return math.inf
    if level < 1.0 and any(a > b / (1 - Fraction(level)) + slack for a, b in zip(qs, ps)):
        return math.inf
    return 0.0


def entropic_penalty(q, p, lam):
    """Dual penalty of the entropic measure with parameter ``lam``:
    lam * KL(Q || P) = lam * sum q log(q / p), with 0 log 0 = 0 (Follmer
    and Schied).  Q must be a probability vector."""
    return lam * math.fsum(a * math.log(a / b) for a, b in zip(q, p) if a > 0.0)


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
