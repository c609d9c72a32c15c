"""Primitive monetary risk measures.

Quantile-based measures (VaR, ES, their robustified variants), the
benchmark-loss VaR, utility-based shortfall, the entropic certain
equivalent, and the two linear baselines (expectation and worst case).

Conventions
-----------
* Losses are positive; a measure returns the capital that makes the
  position acceptable.
* ``var`` uses the survival-function form ``inf{x : P(X > x) <= 1 - beta}``
  throughout the package; for ``beta = 1`` this is the maximum atom.
* ``es`` is the exact tail average of ``var`` levels above ``beta``,
  computed in closed form over the quantile breakpoints (the integrand is
  piecewise constant), never by numeric quadrature.

Each measure also exists as a :class:`RiskEvaluator` factory.  An evaluator
is an immutable, deterministic contract ``LossProfile -> float`` plus a set
of *claimed* property flags; the claims are hypotheses only, the ``axioms``
module is the sole verifier.
"""

import math
import operator

import numpy as np

from .state_space import (
    DomainError,
    LossDistribution,
    MASS_TOL,
    StateSpace,
    _bisect,
    distribution_of,
)

#: Property flags a measure may claim.  ``axioms.check_axiom`` tests the
#: ones in ``axioms.SUPPORTED_PROPERTIES``; ``law_invariant`` and
#: ``ssd_consistent`` are declared only.
KNOWN_CLAIMS = frozenset(
    {
        "monotone",
        "translation_invariant",
        "normalized",
        "positively_homogeneous",
        "star_shaped",
        "subadditive",
        "convex",
        "law_invariant",
        "ssd_consistent",
    }
)


class RiskEvaluator:
    """A risk measure as an evaluation contract with declared claims.

    Parameters
    ----------
    name:
        Stable identifier used in reports.
    fn:
        Deterministic map from ``LossProfile`` to a real number.
    claims:
        Iterable of property flags from :data:`KNOWN_CLAIMS`.  Declared,
        not verified.
    required_n:
        State count the evaluator is pinned to, or ``None`` when it accepts
        profiles on any space (scenario-based measures carry fixed-length
        weight vectors and are pinned).
    """

    __slots__ = ("name", "_fn", "claims", "required_n")

    def __init__(self, name, fn, claims=(), required_n=None):
        unknown = set(claims) - KNOWN_CLAIMS
        if unknown:
            raise DomainError("unknown claim flags: %s" % sorted(unknown))
        self.name = str(name)
        self._fn = fn
        self.claims = frozenset(claims)
        self.required_n = required_n

    def evaluate(self, x):
        return float(self._fn(x))

    __call__ = evaluate

    def __repr__(self):
        return "RiskEvaluator(%r)" % self.name


# ---------------------------------------------------------------------------
# Distribution-level measures
# ---------------------------------------------------------------------------

def var(d, beta):
    """Value-at-Risk: smallest x with P(X > x) <= 1 - beta, beta in (0, 1]."""
    if not 0.0 < beta <= 1.0:
        raise DomainError("var level must lie in (0, 1], got %r" % beta)
    # P(X > v_i) <= 1 - beta  <=>  cum_i >= beta.
    idx = int(np.searchsorted(d.cum, beta - MASS_TOL, side="left"))
    idx = min(idx, len(d) - 1)
    return float(d.values[idx])


def es(d, beta):
    """Expected Shortfall: (1-beta)^{-1} * integral of var over (beta, 1).

    Exact breakpoint integration: var as a function of the level equals
    ``values[i]`` on the cell ``(cum[i-1], cum[i]]``, so the integral is a
    finite sum of cell overlaps with ``(beta, 1)``.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("es level must lie in (0, 1), got %r" % beta)
    lows = np.concatenate(([0.0], d.cum[:-1]))
    highs = np.minimum(d.cum, 1.0)
    overlap = np.clip(highs - np.maximum(lows, beta), 0.0, None)
    return float(math.fsum((d.values * overlap).tolist()) / (1.0 - beta))


def _es_levels(d, levels):
    """``[es(d, b) for b in levels]`` for a float array of levels, bit for
    bit, in O(n) per level.

    Cells wholly above a level contribute ``value * cell width``; these
    products are formed once.  The cell holding the level adds its partial
    overlap; cells below it add zero.  ``math.fsum`` is exactly rounded, so
    leaving out zero terms and reordering the rest changes nothing.
    """
    lows = np.concatenate(([0.0], d.cum[:-1]))
    highs = np.minimum(d.cum, 1.0)
    full = (d.values * np.clip(highs - lows, 0.0, None)).tolist()
    values, highs = d.values.tolist(), highs.tolist()
    # the cell holding b is the last one starting below it
    cells = np.searchsorted(lows, levels, side="left") - 1
    out = []
    for b, k in zip(levels.tolist(), cells.tolist()):
        if not 0.0 < b < 1.0:
            raise DomainError("es level must lie in (0, 1), got %r" % b)
        partial = values[k] * max(highs[k] - b, 0.0)
        out.append(math.fsum(full[k + 1:] + [partial]) / (1.0 - b))
    return out


def mean(d):
    """Probability-weighted average loss."""
    return float(math.fsum((d.values * d.probs).tolist()))


def worst_case(d):
    """Maximum atom value."""
    return float(d.values[-1])


def max_var(ds, beta):
    """Largest var over a nonempty list of laws (robust VaR)."""
    if not ds:
        raise DomainError("max_var needs at least one distribution")
    return max(var(d, beta) for d in ds)


def med_var(ds, beta):
    """Lower median of var over a nonempty list of laws.

    For an even count the lower of the two middle values is taken, matching
    the order-statistic capacity used by Choquet aggregation.
    """
    if not ds:
        raise DomainError("med_var needs at least one distribution")
    vals = sorted(var(d, beta) for d in ds)
    return vals[(len(vals) - 1) // 2]


def entropic(d, lam):
    """Certain equivalent loss ``lam * log E[exp(X / lam)]``, lam > 0.

    Computed with a max shift so that large losses cannot overflow.
    """
    if not lam > 0.0:
        raise DomainError("entropic parameter must be positive, got %r" % lam)
    m = float(d.values[-1])
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    terms = map(math.exp, ((d.values - m) / lam).tolist())
    s = math.fsum(map(operator.mul, d.probs.tolist(), terms))
    return m + lam * math.log(s)


# ---------------------------------------------------------------------------
# Utility-based shortfall
# ---------------------------------------------------------------------------

class Utility:
    """Strictly increasing continuous piecewise-linear utility with u(0) = 0.

    ``knots`` is a strictly increasing list of (x, u(x)) pairs; the function
    extends linearly beyond the extreme knots.  A knot at x = 0 with value 0
    is required so that the shortfall measure is normalized.
    """

    __slots__ = ("xs", "ys", "slopes")

    def __init__(self, knots):
        pts = [(float(x), float(y)) for x, y in knots]
        if len(pts) < 2:
            raise DomainError("utility needs at least two knots")
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("utility knot abscissae must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(slopes <= 0.0):
            raise DomainError("utility must be strictly increasing")
        at_zero = np.where(np.isclose(xs, 0.0, atol=1e-15))[0]
        if at_zero.size != 1 or abs(ys[at_zero[0]]) > 1e-15:
            raise DomainError("utility requires a knot (0, 0)")
        for a in (xs, ys, slopes):
            a.setflags(write=False)
        self.xs, self.ys, self.slopes = xs, ys, slopes

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inner = np.interp(x, self.xs, self.ys)
        below = self.ys[0] + self.slopes[0] * (x - self.xs[0])
        above = self.ys[-1] + self.slopes[-1] * (x - self.xs[-1])
        out = np.where(x < self.xs[0], below, np.where(x > self.xs[-1], above, inner))
        return float(out) if out.ndim == 0 else out


def utility_is_star_compatible(u):
    """True iff the chord slope u(x)/x is nonincreasing on each half-line.

    Checked exactly: within one linear segment the ratio is monotone, so
    knot-to-knot comparisons plus the two tail conditions decide it.
    The tail conditions compare the chord at the extreme knot with the
    extension slope (the ratio tends to that slope at infinity).
    """
    tol = 1e-12
    pos = [(x, y) for x, y in zip(u.xs, u.ys) if x > tol]
    neg = [(x, y) for x, y in zip(u.xs, u.ys) if x < -tol]
    # Positive half-line: ratios at knots must not increase left to right,
    # and the ratio at the last knot must dominate the final slope.
    ratios = [y / x for x, y in pos]
    for a, b in zip(ratios, ratios[1:]):
        if b > a + tol:
            return False
    if pos and u.slopes[-1] > ratios[-1] + tol:
        return False
    # Negative half-line: same reading; the limit toward -infinity is the
    # leading slope, which must dominate the ratio at the innermost knot.
    ratios = [y / x for x, y in neg]
    for a, b in zip(ratios, ratios[1:]):
        if b > a + tol:
            return False
    if neg and ratios[0] > u.slopes[0] + tol:
        return False
    return True


# absolute width at which the shortfall bisection stops
_SHORTFALL_TOL = 1e-10


def shortfall(d, u):
    """Reservation price: inf{m : E[u(m - X)] >= 0} by bracketed bisection.

    The map m -> E[u(m - X)] is continuous and strictly increasing, with a
    guaranteed sign change on [min atom, max atom]; bisection stops at
    absolute width 1e-10 or at the spacing of doubles near the root.
    """

    def acceptable(m):
        return float(np.dot(d.probs, u(m - d.values))) >= 0.0

    lo = float(d.values[0])
    if acceptable(lo):
        return lo
    return _bisect(acceptable, lo, float(d.values[-1]), _SHORTFALL_TOL)


# ---------------------------------------------------------------------------
# Benchmark-loss VaR
# ---------------------------------------------------------------------------

class LossBenchmark:
    """Right-continuous nondecreasing step function t -> level in (0, 1].

    ``steps`` is a list of (t, level) pairs with strictly increasing t
    starting at 0; the level holds on [t_i, t_{i+1}).
    """

    __slots__ = ("times", "levels")

    def __init__(self, steps):
        pts = [(float(t), float(a)) for t, a in steps]
        if not pts:
            raise DomainError("benchmark needs at least one step")
        times = np.array([t for t, _ in pts])
        levels = np.array([a for _, a in pts])
        if times[0] != 0.0:
            raise DomainError("benchmark must start at t = 0")
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("benchmark times must be strictly increasing")
        if np.any(levels <= 0.0) or np.any(levels > 1.0):
            raise DomainError("benchmark levels must lie in (0, 1]")
        if np.any(np.diff(levels) < 0.0):
            raise DomainError("benchmark levels must be nondecreasing")
        times.setflags(write=False)
        levels.setflags(write=False)
        self.times = times
        self.levels = levels


def lvar(d, bench):
    """sup over t >= 0 of var at the benchmark level minus t.

    The benchmark is a right-continuous step and var is constant per step,
    so the supremum is attained at the left endpoint of one of the steps.
    """
    return max(var(d, a) - t for t, a in zip(bench.times, bench.levels))


# ---------------------------------------------------------------------------
# Evaluator factories
# ---------------------------------------------------------------------------

_MONETARY = ("monotone", "translation_invariant", "normalized")
_COHERENT = _MONETARY + ("positively_homogeneous", "star_shaped", "subadditive", "convex")


def var_measure(beta):
    claims = _MONETARY + ("positively_homogeneous", "star_shaped", "law_invariant")
    return RiskEvaluator(
        "var[%g]" % beta, lambda x: var(distribution_of(x), beta), claims
    )


def es_measure(beta):
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return RiskEvaluator(
        "es[%g]" % beta, lambda x: es(distribution_of(x), beta), claims
    )


def mean_measure():
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return RiskEvaluator("mean", lambda x: mean(distribution_of(x)), claims)


def worst_case_measure():
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return RiskEvaluator("worst_case", lambda x: worst_case(distribution_of(x)), claims)


def entropic_measure(lam):
    claims = _MONETARY + ("star_shaped", "convex", "law_invariant", "ssd_consistent")
    return RiskEvaluator(
        "entropic[%g]" % lam, lambda x: entropic(distribution_of(x), lam), claims
    )


def shortfall_measure(u):
    claims = list(_MONETARY) + ["law_invariant"]
    if utility_is_star_compatible(u):
        claims.append("star_shaped")
    if np.all(np.diff(u.slopes) <= 1e-15):
        # Concave utility: the shortfall is convex (hence also SSD consistent).
        claims += ["convex", "ssd_consistent"]
    return RiskEvaluator(
        "shortfall", lambda x: shortfall(distribution_of(x), u), claims
    )


def lvar_measure(bench):
    claims = _MONETARY + ("star_shaped", "law_invariant")
    return RiskEvaluator("lvar", lambda x: lvar(distribution_of(x), bench), claims)


def _scenario_distributions(weight_rows):
    spaces = [StateSpace(w) for w in weight_rows]
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise DomainError("scenario weight vectors must share one length")

    def laws(x):
        if x.space.n != n:
            raise DomainError(
                "profile has %d states, scenarios expect %d" % (x.space.n, n)
            )
        return [LossDistribution._from_arrays(x.values, s.probs) for s in spaces]

    return laws, n


def max_var_measure(weight_rows, beta):
    """Robust VaR: worst var over the laws of x under alternative weights."""
    laws, n = _scenario_distributions(weight_rows)
    claims = _MONETARY + ("positively_homogeneous", "star_shaped")
    return RiskEvaluator(
        "maxvar[%g]" % beta, lambda x: max_var(laws(x), beta), claims, required_n=n
    )


def med_var_measure(weight_rows, beta):
    """Lower-median VaR over the laws of x under alternative weights."""
    laws, n = _scenario_distributions(weight_rows)
    claims = _MONETARY + ("positively_homogeneous", "star_shaped")
    return RiskEvaluator(
        "medvar[%g]" % beta, lambda x: med_var(laws(x), beta), claims, required_n=n
    )
