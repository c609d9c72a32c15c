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
from bisect import bisect_left
from collections import namedtuple
from functools import partial
from itertools import accumulate

import numpy as np

from .state_space import (
    DomainError,
    LossProfile,
    MASS_TOL,
    StateSpace,
    _bisect,
    _line_atoms,
    _space_atoms,
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


# Up to this many states a kernel on plain lists beats the numpy law,
# whose per-call overhead dominates at small n; ``RiskEvaluator._score``
# and ``_line`` send larger profiles to ``fn``.
_PAIR_BUILD_MAX = 64


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

    The law-invariant factories (VaR, ES, mean, worst case, entropic and
    LVaR) refuse bad parameters when called, with the primitive's
    ``DomainError``, and give their evaluator one record, ``_law``: a
    kernel of the law's sorted atoms as plain lists, with the parameters
    bound, and for ES and worst case its line form; and the dual fields,
    a box level or an entropic parameter.  Profiles of up to 64 states
    are scored by the kernel, which skips numpy's per-call overhead and
    returns the same float bit for bit; larger profiles go through
    ``fn``.  The split solver, the normality gate and the penalty grid
    hand their rows to ``_score`` as plain lists.  Along the split
    search's coordinate lines only one entry moves, and ``_line`` scores
    the ES and worst-case lines on a law kept sorted for the whole line,
    through the line form, which keeps the kernel's terms per insertion
    place.

    The box level is the ES level of mean (0), ES and worst case (1).
    Their dual sets are boxes cut from the probability simplex, nested by
    level.  The entropic parameter lam prices Q by lam * KL(Q || P).
    ``aggregate.inf_convolution`` splits such families exactly, and
    ``envelope.penalty_of`` prices their dual sets in closed form.
    """

    __slots__ = ("name", "_fn", "claims", "required_n", "_law")

    def __init__(self, name, fn, claims=(), required_n=None):
        unknown = set(claims) - KNOWN_CLAIMS
        if unknown:
            raise DomainError("unknown claim flags: %s" % sorted(unknown))
        self.name = str(name)
        self._fn = fn
        self.claims = frozenset(claims)
        self.required_n = required_n
        # the _Law record of a law factory
        self._law = None

    def evaluate(self, x):
        return self._score(x.values, x.space)

    def _score(self, values, space):
        """Charge of the loss ``values`` (a float list or array) on ``space``:
        by the kernel when there is one and n <= 64, else by ``fn`` on a
        profile of the values."""
        if self._law is not None and space.n <= _PAIR_BUILD_MAX:
            if not isinstance(values, list):
                values = values.tolist()
            return float(self._law.score(*_space_atoms(values, space)))
        return float(self._fn(LossProfile(space, values, _validate=False)))

    def _line(self, values, j, space):
        """``_score`` of the float list ``values`` with entry ``j`` set to t,
        as a function of t, bit for bit.  With a line form and n <= 64 the
        line's law (``_line_atoms``) is scored by the form, which runs once
        per insertion place of t; each later point there costs one fsum of
        the kept terms for ES and a constant for worst case.  Otherwise
        each point is ``_score`` of a copy of the row."""
        law = self._law
        if law is not None and law.line is not None and space.n <= _PAIR_BUILD_MAX:
            return _line_atoms(values, j, space, law.line, law.score)
        row = list(values)

        def score(t):
            row[j] = t
            return self._score(row, space)

        return score

    __call__ = evaluate

    def __repr__(self):
        return "RiskEvaluator(%r)" % self.name


# ---------------------------------------------------------------------------
# Distribution-level measures
# ---------------------------------------------------------------------------

# Each primitive below takes a ``LossDistribution`` and checks its
# parameters; the ``_*_atoms`` kernel next to it takes parameters its
# factory has checked, then the same law as plain lists (values, probs,
# cum), and returns the same float bit for bit.  A line form scores it on
# a law with one moving atom t: see "Line forms" below.

def var(d, beta):
    """Value-at-Risk: smallest x with P(X > x) <= 1 - beta, beta in (0, 1].

    The running mass is compared with a slack of ``MASS_TOL``, so beta = 1
    reaches the largest atom only within it: on weights (0.5, 0.5, 5e-13)
    and losses (-3, -2, -1), ``var(d, 1.0)`` is -2, not -1."""
    _check_var_level(beta)
    return float(_var_atoms(beta, d.values, d.probs, d.cum))


def _var_atoms(beta, values, probs, cum):
    # P(X > v_i) <= 1 - beta  <=>  cum_i >= beta.
    return values[min(bisect_left(cum, beta - MASS_TOL), len(cum) - 1)]


def _check_var_level(beta):
    if not 0.0 < beta <= 1.0:
        raise DomainError("var level must lie in (0, 1], got %r" % beta)


def es(d, beta):
    """Expected Shortfall: (1-beta)^{-1} * integral of var over (beta, 1).

    Exact breakpoint integration: var as a function of the level equals
    ``values[i]`` on the cell ``(cum[i-1], cum[i]]``, so the integral is a
    finite sum of cell overlaps with ``(beta, 1)``, added by one
    ``math.fsum``.
    """
    levels = np.array([beta])
    (b,) = levels.tolist()
    _check_es_level(b)
    full, (above,), (partial,) = _es_cells(d, levels)
    return math.fsum(full[above:].tolist() + [partial]) / (1.0 - b)


def _es_atoms(beta, values, probs, cum):
    return math.fsum(map(operator.mul, values, _es_widths(beta, cum))) / (1.0 - beta)


def _es_widths(beta, cum):
    """Each cell's clipped overlap of (beta, 1), the weight of its value."""
    widths, low = [], 0.0
    for high in cum:
        # the cell (low, high] against (beta, 1)
        overlap = (high if high < 1.0 else 1.0) - (low if low > beta else beta)
        widths.append(overlap if overlap > 0.0 else 0.0)
        low = high
    return widths


def _check_es_level(beta):
    if not 0.0 < beta < 1.0:
        raise DomainError("es level must lie in (0, 1), got %r" % beta)


def _es_cells(d, levels):
    """The terms of ES of ``d`` at each level of a float array: every
    cell's ``value * width``; per level, the index of the first cell
    wholly above it; and the product of the cell below that one, which
    holds the level, with its overlap of the level's tail."""
    lows = np.concatenate((_ZERO, d.cum[:-1]))
    highs = np.minimum(d.cum, 1.0)
    full = d.values * np.maximum(highs - lows, 0.0)
    above = lows.searchsorted(levels)
    cell = above - 1
    partial = d.values[cell] * np.maximum(highs[cell] - levels, 0.0)
    return full, above, partial


_ZERO = np.zeros(1)


def _es_table(d, levels):
    """ES of ``d`` at each level of a float array in (0, 1), as a list;
    ``es`` is the one-level case, by one ``math.fsum``.

    Each total is that of ``es``, the ``math.fsum`` of the products of the
    cells above the level and its partial product, bit for bit.  Every
    term is a finite double (a law's values are finite and each width is
    at most 1), so an integer multiple of 2**lo, where lo is the place of
    the lowest bit among them; the suffix totals of the cell products are
    kept as exact Python ints, and each level's total, like
    ``math.fsum``'s, is its exact sum rounded once.  That costs O(n) for
    all levels, except for levels handed to ``math.fsum`` over their own
    tail, O(n) each: a level whose exact total is zero (``math.fsum``
    gives its sign), and every level when the terms' ``np.frexp``
    exponents (0 for a zero term) span more than 970 - b or exceed
    1022 - b, b the bit length of the number of terms, where the scaled
    terms or a sum could overflow a float.
    """
    full, above, partial = _es_cells(d, levels)
    terms = np.concatenate((full, partial))
    exps = np.frexp(terms)[1]
    lo = int(np.minimum.reduce(exps)) - 53
    hi = int(np.maximum.reduce(exps))
    size = full.size
    # suffix[j]: exact total of the cells from j up; all zero, so that
    # every total goes to math.fsum, unless the terms convert
    suffix, parts = [0] * (size + 1), [0] * levels.size
    # every total stays below 2**(hi + spread), as a multiple of 2**lo
    # below 2**(hi - lo + spread)
    spread = terms.size.bit_length()
    if hi + spread <= 1022 and hi - lo + spread <= 1023:
        ints = list(map(int, np.ldexp(terms, -lo).tolist()))
        suffix = list(accumulate(reversed(ints[:size]), initial=0))[::-1]
        parts = ints[size:]
    out = []
    for j, part, p, b in zip(above.tolist(), parts, partial.tolist(), levels.tolist()):
        t = suffix[j] + part
        out.append((math.ldexp(t, lo) if t else math.fsum(full[j:].tolist() + [p])) / (1.0 - b))
    return out


def mean(d):
    """Probability-weighted average loss."""
    return float(math.fsum((d.values * d.probs).tolist()))


def _mean_atoms(values, probs, cum):
    return math.fsum(map(operator.mul, values, probs))


def worst_case(d):
    """Maximum atom value."""
    return float(d.values[-1])


def _worst_case_atoms(values, probs, cum):
    return values[-1]


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
    return _lower_median([var(d, beta) for d in ds])


def _lower_median(vals):
    vals = sorted(vals)
    return vals[(len(vals) - 1) // 2]


def entropic(d, lam):
    """Certain equivalent loss ``lam * log E[exp(X / lam)]``, 0 < lam < inf.

    Computed with a max shift so that large losses cannot overflow.
    """
    _check_entropic_parameter(lam)
    m = float(d.values[-1])
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    terms = map(math.exp, ((d.values - m) / lam).tolist())
    s = math.fsum(map(operator.mul, d.probs.tolist(), terms))
    return m + lam * math.log(s)


def _entropic_atoms(lam, values, probs, cum):
    m = values[-1]
    s = math.fsum([p * math.exp((v - m) / lam) for v, p in zip(values, probs)])
    return m + lam * math.log(s)


def _check_entropic_parameter(lam):
    if not lam > 0.0:
        raise DomainError("entropic parameter must be positive, got %r" % lam)
    if lam == math.inf:
        raise DomainError("entropic parameter must be finite, got %r" % lam)


# ---------------------------------------------------------------------------
# Utility-based shortfall
# ---------------------------------------------------------------------------

class Utility:
    """Strictly increasing continuous piecewise-linear utility with u(0) = 0.

    ``knots`` is a strictly increasing list of (x, u(x)) pairs; the function
    extends linearly beyond the extreme knots.  A knot at x = 0 with value 0
    is required so that the shortfall measure is normalized.

    Each segment is evaluated from its end nearer zero, so near zero
    u(x) = slope * x keeps the low digits of x at any scale.
    """

    __slots__ = ("xs", "ys", "slopes", "_cuts", "_x0", "_y0", "_bound")

    def __init__(self, knots):
        pts = [(float(x), float(y)) for x, y in knots]
        if len(pts) < 2:
            raise DomainError("utility needs at least two knots")
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("utility knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("utility knot abscissae must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(slopes <= 0.0):
            raise DomainError("utility must be strictly increasing")
        at_zero = np.where(np.isclose(xs, 0.0, atol=1e-15))[0]
        if at_zero.size != 1 or abs(ys[at_zero[0]]) > 1e-15:
            raise DomainError("utility requires a knot (0, 0)")
        # per segment, the anchor knot nearer zero; the outer segments extend
        left = np.abs(xs[:-1]) <= np.abs(xs[1:])
        x0 = np.where(left, xs[:-1], xs[1:])
        y0 = np.where(left, ys[:-1], ys[1:])
        cuts = xs[1:-1]
        for a in (xs, ys, slopes, cuts, x0, y0):
            a.setflags(write=False)
        self.xs, self.ys, self.slopes = xs, ys, slopes
        self._cuts, self._x0, self._y0 = cuts, x0, y0
        # for shortfall's replay radius: the least slope (0 if subnormal,
        # where the stored slope's relative error is unbounded), the
        # largest, and 3 |y_z| + 2 S |x_z| of the zero knot
        least, most, z = float(slopes.min()), float(slopes.max()), at_zero[0]
        self._bound = (least if least >= 2.0 ** -1022 else 0.0, most,
                       3.0 * abs(float(ys[z])) + 2.0 * most * abs(float(xs[z])))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self._cuts, x, side="right")
        out = self._y0[i] + self.slopes[i] * (x - self._x0[i])
        return float(out) if out.ndim == 0 else out


def utility_is_star_compatible(u):
    """True iff the chord slope u(x)/x is nonincreasing on each half-line.

    Checked exactly: within one linear segment the ratio is monotone, so
    knot-to-knot comparisons decide it.  The tails need no test of their
    own: the ratio at an outermost knot is a weighted average of its
    neighbour's ratio and the tail slope, the tail ratio's limit.
    """
    tol = 1e-12
    neg = [y / x for x, y in zip(u.xs, u.ys) if x < -tol]
    pos = [y / x for x, y in zip(u.xs, u.ys) if x > tol]
    return not any(
        b > a + tol for ratios in (neg, pos) for a, b in zip(ratios, ratios[1:])
    )


# width at which the shortfall bisection stops, times the law's largest
# magnitude when that is below 1
_SHORTFALL_TOL = 1e-10


def shortfall(d, u):
    """Reservation price: inf{m : E[u(m - X)] >= 0} by bracketed bisection.

    The map m -> E[u(m - X)] is continuous and strictly increasing, with a
    guaranteed sign change on [min atom, max atom]; bisection stops at
    width 1e-10 times the largest magnitude s of the atoms when s < 1,
    else at 1e-10, or at the spacing of doubles near the root.

    The search is replayed: its midpoints, and so its answer, are bit for
    bit those of the float bisection on ``acceptable(m)``, the sign of
    F(m) = fl(sum_i p_i u(fl(m - v_i))), but most tests are answered from
    a root r (``_shortfall_root``) and a radius rho.  A midpoint at or
    above r + rho is acceptable, one at or below r - rho is not, and only
    one in between evaluates F.

    The radius.  Let e = 2**-53, g_k = k e / (1 - k e), n the number of
    atoms, P their mass, S and s the largest and least slopes of ``u``,
    (x_z, y_z) its zero knot, and G(m) = sum_i p_i U(m - v_i) with U the
    exact piecewise-linear function through the knots.  ``u`` evaluates x
    on segment j as fl(y0 + fl(s_j fl(x - x0))): that is within g_3 a of
    the line y0 + s_j (x - x0), a = |y0| + |s_j (x - x0)|, and the stored
    slope s_j, within g_3 of the exact one, moves that line (and so the
    jump between rounded lines at a cut) by at most g_4 a.  y0 and
    s_j (x - x0) share a sign unless |y0| <= |y_z|, so
    a (1 - g_4) <= |U(x)| + 2 |y_z| <= (1 + g_4) S |x| + Z, with
    Z = 3 |y_z| + 2 S |x_z|.  fl(m - v_i) is within e of m - v_i, and the
    dot is within g_n sum |p_i w_i| in any summation order (Higham 2002,
    section 3.1).  With P <= 2 and the underflow of at most two products
    per atom,

        |F(m) - G(m)| <= E(m) = g (S M(m) + 2 Z) + n 2**-1072,

    g = g_{n+32} and M(m) = sum_i p_i |m - v_i|, so E(r + t) <= E(r) + k |t|
    with k = g S P.  G rises with slope at least q = s P, so its root lies
    within (|F(r)| + E(r)) / q of r, and F(r + t) >= 0 for t >= rho and
    F(r - t) < 0 for t > rho, where rho = (|F(r)| + 2 E(r)) / (q - k).  The
    code widens P, M(r), q and k by factors 1 -+ g for their own rounding,
    and rho by a factor 1 + 2**-40 and by 2**-52 |r| for that of rho and
    r +- rho.  When q <= k, or a bound overflows, rho is NaN or infinite
    and every test evaluates F.
    """
    v, p = d.values, d.probs

    def acceptable(m):
        return float(np.dot(p, u(m - v))) >= 0.0

    n, mass = v.size, float(d.cum[-1])
    r = _shortfall_root(d, u)
    w = r - v
    f = float(np.dot(p, u(w)))
    least, most, slack = u._bound
    g = (n + 32) * _EPS / (1.0 - (n + 32) * _EPS)
    err = g * (most * float(np.dot(p, np.abs(w))) * (1.0 + g) + 2.0 * slack)
    err += n * 2.0 ** -1072
    q, k = least * mass * (1.0 - g), g * most * mass * (1.0 + g)
    rho = (abs(f) + 2.0 * err) / (q - k) if q > k else math.nan
    rho = rho * (1.0 + 2.0 ** -40) + 2.0 ** -52 * abs(r)
    above, below = r + rho, r - rho

    def replay(m):
        # a NaN radius answers no test
        return m >= above or (not m <= below and acceptable(m))

    lo, hi = float(v[0]), float(v[-1])
    if replay(lo):
        return lo
    scale = max(-lo, hi)
    return _bisect(replay, lo, hi, _SHORTFALL_TOL * min(1.0, scale))


# unit roundoff of doubles
_EPS = 2.0 ** -53


def _shortfall_root(d, u):
    """A root of m -> sum_i p_i u(m - v_i) on the law ``d``, up to rounding.

    The map is piecewise linear, with breakpoints v_i + cut_j.  Around the
    median atom c, prefix sums of p and of p (v - c) give each segment's
    mass and moment at any m by one ``searchsorted`` of m - cuts, so the
    map's value and slope there cost O(K log n) for K cuts.  Newton steps
    solve the linear piece at m, kept inside the sign bracket (bisection
    when a step leaves it), until a step lands in the piece it solved.
    Only speed depends on the result: ``shortfall`` bounds its distance to
    the root from a float evaluation.
    """
    v, n = d.values, d.values.size
    c = float(v[n // 2])
    cum = np.concatenate((_ZERO, d.cum))
    cumv = np.concatenate((_ZERO, (d.probs * (v - c)).cumsum()))
    cuts, x0s, y0s, slopes = u._cuts, u._x0.tolist(), u._y0.tolist(), u.slopes.tolist()
    a, b = float(v[0]), float(v[-1])
    m, solved = c, None
    for _ in range(_ROOT_STEPS):
        piece = v.searchsorted(m - cuts, side="right").tolist()
        if piece == solved:
            break
        ends = [n] + piece + [0]
        cs, cvs = cum[ends].tolist(), cumv[ends].tolist()
        value = slope = 0.0
        for j, (x0, y0, s) in enumerate(zip(x0s, y0s, slopes)):
            share = cs[j] - cs[j + 1]
            value += share * (y0 + s * (m - c - x0)) - s * (cvs[j] - cvs[j + 1])
            slope += s * share
        step = m - value / slope if slope else m
        if step == m:
            break
        if value >= 0.0:
            b = m
        else:
            a = m
        solved = piece if a < step < b else None
        if solved is None:
            step = 0.5 * (a + b)
            if not a < step < b:
                break
        m = step
    return m


# cap on the steps of ``_shortfall_root``; one that leaves its bracket
# halves it instead
_ROOT_STEPS = 100


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
        if not np.isfinite(times).all():
            raise DomainError("benchmark times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("benchmark times must be strictly increasing")
        # written so that a NaN level fails it too
        if not np.all((levels > 0.0) & (levels <= 1.0)):
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
    return float(_lvar_atoms(bench, d.values, d.probs, d.cum))


def _lvar_atoms(bench, values, probs, cum):
    return max(
        _var_atoms(a, values, probs, cum) - t
        for t, a in zip(bench.times.tolist(), bench.levels.tolist())
    )


# ---------------------------------------------------------------------------
# Line forms
# ---------------------------------------------------------------------------

# A line form takes one insertion place of a coordinate line
# (``state_space._line_atoms``): the sorted fixed values ``vals``, and the
# probabilities and running totals of the law with t inserted at index
# ``at``.  It returns step(t), the kernel's float on that law bit for bit.
# ES and worst case keep the kernel's terms once per place, so that a
# later point there makes only t's term; the ``infconv`` report's search
# runs them.  Every other kernel scores each line point on the whole row.

def _es_line(beta, vals, probs, cum, at):
    """The kernel's terms, value times clipped width, made once with t's
    put at index ``at``, then one ``math.fsum`` in the kernel's order,
    which an overflow can tell apart: ``fsum([1e308, 1e308, -1e308])``
    raises where ``[1e308, -1e308, 1e308]`` gives 1e308."""
    widths = _es_widths(beta, cum)
    terms = list(map(operator.mul, vals[:at] + [0.0] + vals[at:], widths))
    w, scale = widths[at], 1.0 - beta

    def step(t):
        terms[at] = t * w
        return math.fsum(terms) / scale

    return step


def _worst_case_line(vals, probs, cum, at):
    if at == len(vals):
        return lambda t: t
    c = vals[-1]
    return lambda t: c


# ---------------------------------------------------------------------------
# Evaluator factories
# ---------------------------------------------------------------------------

_MONETARY = ("monotone", "translation_invariant", "normalized")
_COHERENT = _MONETARY + ("positively_homogeneous", "star_shaped", "subadditive", "convex")


# What a law factory knows of its measure: ``score``, the kernel, and
# ``line``, its line form or None, each with the measure's parameters
# bound; ``level``, the ES level of a box-dual primitive, else None; and
# ``lam``, the entropic parameter, else None.
_Law = namedtuple("_Law", "score line level lam")


def _law_measure(name, claims, primitive, kernel, *params, line=None, level=None,
                 lam=None):
    """Evaluator of ``primitive(distribution_of(x), *params)`` that scores
    small profiles by ``kernel(*params, values, probs, cum)``, for
    parameters the caller has checked; ``line`` is the kernel's own line
    form, if it has one."""
    rho = RiskEvaluator(
        name, lambda x: primitive(distribution_of(x), *params), claims
    )
    rho._law = _Law(partial(kernel, *params), line and partial(line, *params), level, lam)
    return rho


def var_measure(beta):
    _check_var_level(beta)
    claims = _MONETARY + ("positively_homogeneous", "star_shaped", "law_invariant")
    return _law_measure("var[%g]" % beta, claims, var, _var_atoms, beta)


def es_measure(beta):
    _check_es_level(beta)
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return _law_measure("es[%g]" % beta, claims, es, _es_atoms, beta, line=_es_line,
                        level=beta)


def mean_measure():
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return _law_measure("mean", claims, mean, _mean_atoms, level=0.0)


def worst_case_measure():
    claims = _COHERENT + ("law_invariant", "ssd_consistent")
    return _law_measure("worst_case", claims, worst_case, _worst_case_atoms,
                        line=_worst_case_line, level=1.0)


def entropic_measure(lam):
    _check_entropic_parameter(lam)
    claims = _MONETARY + ("star_shaped", "convex", "law_invariant", "ssd_consistent")
    return _law_measure("entropic[%g]" % lam, claims, entropic, _entropic_atoms, lam,
                        lam=lam)


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
    return _law_measure("lvar", claims, lvar, _lvar_atoms, bench)


def _scenario_var_measure(label, pick, weight_rows, beta):
    """Evaluator of ``pick`` over the VaRs of x under each weight row,
    pinned to the rows' common length; each VaR is taken on the row's
    plain atoms, bit for bit the VaR of its law."""
    spaces = [StateSpace(w) for w in weight_rows]
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise DomainError("scenario weight vectors must share one length")
    _check_var_level(beta)

    def fn(x):
        if x.space.n != n:
            raise DomainError(
                "profile has %d states, scenarios expect %d" % (x.space.n, n)
            )
        values = x.values.tolist()
        return pick([_var_atoms(beta, *_space_atoms(values, s)) for s in spaces])

    claims = _MONETARY + ("positively_homogeneous", "star_shaped")
    return RiskEvaluator("%s[%g]" % (label, beta), fn, claims, required_n=n)


def max_var_measure(weight_rows, beta):
    """Robust VaR: worst var over the laws of x under alternative weights."""
    return _scenario_var_measure("maxvar", max, weight_rows, beta)


def med_var_measure(weight_rows, beta):
    """Lower-median VaR over the laws of x under alternative weights."""
    return _scenario_var_measure("medvar", _lower_median, weight_rows, beta)
