"""Combining several measures into one: Choquet integrals against a
capacity, inf-convolution risk sharing, clearing margins, and the
caution-weighted blend of committee extremes.
"""

import math
from dataclasses import dataclass, field
from operator import add, sub

import numpy as np

from .state_space import (
    MASS_TOL,
    Capacity,
    DimensionError,
    DomainError,
    LossProfile,
    _check_index_count,
    _is_integer,
)
from .measures import _MONETARY, RiskEvaluator, _charges
from .axioms import _PROBE_BOUND

__all__ = [
    "MeasureFamily",
    "SplitSolution",
    "NormalityReport",
    "SolverConfig",
    "choquet_aggregate",
    "order_statistic_capacity",
    "additive_capacity",
    "sup_capacity",
    "inf_capacity",
    "normality_check",
    "inf_convolution",
    "ccp_margin",
    "ecb_blend",
    "choquet_measure",
    "ecb_blend_measure",
    "ccp_margin_measure",
    "infconv_measure",
]

# Claims that survive every aggregation in this module as long as all
# members carry them.  Star shape is the headline closure result; the
# monetary trio passes through each construction unchanged.  Positive
# homogeneity also passes through the exact aggregators (Choquet, blend)
# but is not claimed for solver-backed ones, whose output carries
# optimization error.
_PASS_THROUGH = _MONETARY + ("star_shaped",)
_PASS_THROUGH_EXACT = _PASS_THROUGH + ("positively_homogeneous",)


class MeasureFamily:
    """Ordered risk evaluators sharing one state space."""

    __slots__ = ("members", "space")

    def __init__(self, members, space):
        members = tuple(members)
        if not members:
            raise DomainError("a measure family needs at least one member")
        for rho in members:
            need = getattr(rho, "required_n", None)
            if need is not None and need != space.n:
                raise DimensionError(
                    "member %r is pinned to %d states, family space has %d"
                    % (rho.name, need, space.n)
                )
        self.members = members
        self.space = space

    @property
    def size(self):
        return len(self.members)

    def values(self, x):
        """Member evaluations at x, in member order, bit for bit ``rho(x)``;
        the members with a law record share one law of x (``_charges``)."""
        self._check(x)
        return np.array(_charges(self.members, x.values, x.space))

    def subfamily(self, indices):
        idx = tuple(indices)
        if not idx:
            raise DomainError("subfamily needs at least one index")
        if not all(map(_is_integer, idx)):
            raise DomainError("member indices must be integers: %r" % (idx,))
        if any(not 0 <= i < self.size for i in idx):
            raise DomainError("member index out of range: %r" % (idx,))
        return MeasureFamily([self.members[i] for i in idx], self.space)

    def _check(self, x):
        if x.space.n != self.space.n:
            raise DimensionError(
                "profile has %d states, family space has %d"
                % (x.space.n, self.space.n)
            )


@dataclass(frozen=True)
class SplitSolution:
    """A feasible split of a target position with its total risk charge.

    ``parts`` sum to the target componentwise (exactly, by construction:
    the last part absorbs the remainder, or one part is the target and
    the others are zero).  ``meta`` records solver provenance; attainment
    of the infimum is not decidable numerically, so a search reports it
    as "unknown" rather than claimed.  It is "exact" for a single member,
    whose charge of the whole target is the infimum, and on the exact
    routes of ``inf_convolution``.
    """

    parts: tuple
    total: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of the bounded-below gate for inf-convolution."""

    passed: bool
    method: str  # "certificate" or "sampling"
    samples_used: int
    witness: dict | None = None


# -- Choquet aggregation ----------------------------------------------------


def choquet_aggregate(fam, mu, x):
    """Choquet integral of the member values against the capacity ``mu``.

    Members are ranked by value, largest first (ties broken by member
    index), and each value is weighted by the capacity increment of its
    top set.  Equal values make the increments telescope, so the result
    does not depend on the tie order.
    """
    _check_capacity(fam, mu)
    vals = fam.values(x)
    order = np.argsort(-vals, kind="stable")
    terms = []
    mask = 0
    prev = 0.0
    for i in order:
        mask |= 1 << int(i)
        level = mu.of(mask)
        terms.append(vals[i] * (level - prev))
        prev = level
    return math.fsum(terms)


def _check_capacity(fam, mu):
    if mu.index_count != fam.size:
        raise DimensionError("capacity indexes %d members, family has %d"
                             % (mu.index_count, fam.size))


def order_statistic_capacity(k, r):
    """Capacity whose Choquet aggregate is the r-th smallest member value.

    mu(J) = 1 exactly when |J| >= k - r + 1: the (k-r+1)-th largest value
    is the first whose top set reaches that size.
    """
    k = _check_index_count(k)
    if not _is_integer(r):
        raise DomainError("rank must be an integer, got %r" % (r,))
    if not 1 <= r <= k:
        raise DomainError("rank must satisfy 1 <= r <= k, got r=%d, k=%d" % (r, k))
    need = k - r + 1
    table = [1.0 if mask.bit_count() >= need else 0.0 for mask in range(1 << k)]
    return Capacity(k, table)


def additive_capacity(weights):
    """Probability-vector capacity; the aggregate is the weighted average."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise DomainError("weights must be a nonempty vector")
    if not np.isfinite(w).all():
        raise DomainError("weights must be finite")
    if np.any(w < 0.0):
        raise DomainError("weights must be nonnegative")
    if abs(math.fsum(w.tolist()) - 1.0) > MASS_TOL:
        raise DomainError("weights must sum to 1")
    k = _check_index_count(w.size)
    table = [float(w[[b for b in range(k) if mask >> b & 1]].sum())
             for mask in range(1 << k)]
    table[-1] = 1.0
    return Capacity(k, table)


def sup_capacity(k):
    """Full weight on every nonempty subset; aggregates to the member max."""
    return order_statistic_capacity(k, k)


def inf_capacity(k):
    """Weight only on the full set; aggregates to the member min."""
    return order_statistic_capacity(k, 1)


# -- Inf-convolution --------------------------------------------------------


# the least value of each SolverConfig setting
_CONFIG_LEAST = {"seed": 0, "starts": 1, "max_sweeps": 0, "scan_points": 1,
                 "polish_stall": 0, "polish_cap": 0}


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the multi-start coordinate-descent split solver.

    The box for each coordinate of each free part is
    [min(x) - span, max(x) + span] where span = max(x) - min(x), floored
    at 1.0 so degenerate targets still leave room to trade.  After the
    coordinate sweeps the best candidate is polished with line searches
    along random directions; axis-aligned descent can stall on the edges
    of piecewise-linear objectives, and for convex members a random
    direction escapes any such non-optimal stall.  The line-search width
    (1e-9), the least improvement that counts (1e-12) and the normality
    gate's 300 samples are fixed.  Every setting is an integer (a numpy
    one too).  A search needs at least one start and one scan point; the
    seed and the sweep and polish counts may be 0.
    """

    seed: int = 0
    starts: int = 16
    max_sweeps: int = 60
    scan_points: int = 17
    polish_stall: int = 30
    polish_cap: int = 400

    def __post_init__(self):
        for name, least in _CONFIG_LEAST.items():
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise DomainError("solver %s must be an integer, got %r" % (name, value))
            if not value >= least:
                raise DomainError(
                    "solver %s must be at least %d, got %r" % (name, least, value)
                )


# Golden-section width of each line search, and the least drop in the split
# total that counts as progress (a sweep, or a polish round).
_LINE_TOL = 1e-9
_IMPROVE_TOL = 1e-12
# zero-sum tuples the normality gate samples when no certificate is found
_NORMALITY_SAMPLES = 300


def normality_check(fam, samples=1000, seed=0):
    """Gate for inf-convolution: zero-sum splits must not create free money.

    Sufficient certificate first: if the expectation under the family's
    own weighting is dominated by every member on random probes, any
    split total is bounded below by that expectation of the target.
    Otherwise random zero-sum tuples are sampled and the first tuple with
    a negative total is returned as a witness.  ``samples`` must be at
    least 1.
    """
    if not samples >= 1:
        raise DomainError("normality samples must be at least 1, got %r" % samples)
    rng = np.random.default_rng(seed)
    n = fam.space.n
    probs = fam.space.probs
    certificate_probes = 64
    certified = True
    for _ in range(certificate_probes):
        v = rng.uniform(-_PROBE_BOUND, _PROBE_BOUND, size=n)
        floor = float(probs @ v)
        row = v.tolist()
        if any(c < floor - 1e-9 for c in _charges(fam.members, row, fam.space)):
            certified = False
            break
    if certified:
        return NormalityReport(True, "certificate", certificate_probes)

    k = fam.size
    for i in range(int(samples)):
        parts = rng.uniform(-_PROBE_BOUND, _PROBE_BOUND, size=(k - 1, n))
        last = -parts.sum(axis=0)
        tuples = list(parts) + [last]
        total = math.fsum(
            rho._score(z, fam.space) for rho, z in zip(fam.members, tuples)
        )
        if total < -1e-9:
            witness = {"parts": [z.copy() for z in tuples], "total": total}
            return NormalityReport(False, "sampling", i + 1, witness)
    return NormalityReport(True, "sampling", int(samples))


def _golden_line(objective, grid):
    """Minimize a 1-d function: coarse scan of the float list ``grid``
    (``np.linspace`` of the line's ends), then golden section in the
    bracketing cell to width ``_LINE_TOL``, or until the golden points are
    no longer strictly inside it (adjacent doubles spaced wider than the
    width).  Returns (argmin, value)."""
    vals = [objective(t) for t in grid]
    j = int(np.argmin(vals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, len(grid) - 1)]
    best_t, best_v = grid[j], vals[j]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _LINE_TOL and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    mid = 0.5 * (a + b)
    vm = objective(mid)
    if vm < best_v:
        best_t, best_v = mid, vm
    return best_t, best_v


def _direction_polish(objective, theta, value, lo, hi, rng, config):
    """Line searches along random unit directions until ``polish_stall``
    consecutive rounds fail to improve (or ``polish_cap`` rounds total).
    ``theta`` is a float list; each point on a line is clipped to the box
    entrywise, which gives ``np.clip``'s bits on finite values."""
    free = len(theta)
    stalled = 0
    for _ in range(config.polish_cap):
        if stalled >= config.polish_stall:
            break
        d = rng.standard_normal(free)
        d = (d / np.linalg.norm(d)).tolist()
        # Feasible parameter interval keeping theta + t*d inside the box.
        t_lo, t_hi = -math.inf, math.inf
        for i in range(free):
            if abs(d[i]) < 1e-15:
                continue
            a = (lo - theta[i]) / d[i]
            b = (hi - theta[i]) / d[i]
            t_lo = max(t_lo, min(a, b))
            t_hi = min(t_hi, max(a, b))
        if not t_lo < t_hi:
            stalled += 1
            continue

        def along(t):
            return [min(max(a + t * b, lo), hi) for a, b in zip(theta, d)]

        grid = np.linspace(t_lo, t_hi, config.scan_points).tolist()
        t_best, v_best = _golden_line(lambda t: objective(along(t)), grid)
        if v_best < value - _IMPROVE_TOL:
            theta = along(t_best)
            value = v_best
            stalled = 0
        else:
            stalled += 1
    return theta, value


def _exact_split(fam):
    """The exact split of ``fam``, a function of the target that returns
    (parts, total), or None.  P lies in every dual set it serves.

    Mean, ES and worst-case members have boxes as dual sets, the simplex
    cut by q <= p / (1 - level) (no cut at level 1), nested by level: the
    first member at the lowest level takes the target and charges the
    total, and the others take zero.  Two or more entropic members share
    as entropic at L = sum lam: member i takes (lam_i / L) x, the last
    the target less numpy's axis-0 sum of the others, and the total is
    their charge of their parts.
    """
    levels = [None if rho._law is None else rho._law.level for rho in fam.members]
    if None not in levels:
        w = levels.index(min(levels))

        def box_split(x):
            zero = LossProfile(x.space, np.zeros(x.space.n), _validate=False)
            return tuple(x if i == w else zero for i in range(fam.size)), fam.members[w](x)

        return box_split
    lams = [None if rho._law is None else rho._law.lam for rho in fam.members]
    if None in lams or fam.size < 2:
        return None
    whole = math.fsum(lams)

    def entropic_split(x):
        free = [lam / whole * x.values for lam in lams[:-1]]
        rows = free + [x.values - np.sum(free, axis=0)]
        parts = tuple(LossProfile(x.space, v, _validate=False) for v in rows)
        return parts, math.fsum(rho(z) for rho, z in zip(fam.members, parts))

    return entropic_split


def inf_convolution(fam, x, config=None, assume_normal=False):
    """Cheapest split of ``x`` among the family members.

    The penalty of an inf-convolution is the sum of the members'
    penalties, for a family of mean, ES and worst-case members, or of two
    or more entropic members, again a box or lam * KL: the split is exact
    (``_exact_split``), with no normality gate.  Other families go to the
    split search, ``_search_split``, which refuses to run when the
    normality gate fails, unless ``assume_normal`` is set.
    """
    split = _exact_split(fam)
    if split is None:
        return _search_split(fam, x, config, assume_normal)
    fam._check(x)
    parts, total = split(x)
    return SplitSolution(parts, total, {"attainment": "exact", "converged": True})


def _search_split(fam, x, config=None, assume_normal=False):
    """Cheapest split of ``x`` found by search.

    Minimizes the summed member charges over all decompositions of the
    target, the last part absorbing the remainder so feasibility is
    exact.  Multi-start coordinate descent with golden-section line
    searches; deterministic for a fixed config.  The parts are plain
    float lists, and a point on the line of free coordinate (r, j) moves
    only entry j of part r and of the remainder, so only those two members
    are rescored there, each on its line's law (``RiskEvaluator._line``);
    the other charges carry over.  Every line spans the same box, so its
    scan grid is made once per search.  Refuses to run when the normality
    gate fails, unless ``assume_normal`` is set.
    """
    config = config or SolverConfig()
    fam._check(x)
    k = fam.size
    # a single member takes the whole target: its charge is the infimum
    meta = {"attainment": "exact" if k == 1 else "unknown",
            "starts": int(config.starts), "converged": True}
    if k == 1:
        return SplitSolution((x,), fam.members[0](x), meta)

    if not assume_normal:
        _gate(fam, config)

    n = x.space.n
    xv = x.values
    xs = xv.tolist()
    span = max(float(xv.max() - xv.min()), 1.0)
    lo = float(xv.min()) - span
    hi = float(xv.max()) + span
    space = x.space
    members = fam.members
    free = (k - 1) * n

    def settle(rows, j):
        """Set the remainder's entry j to x_j less the free parts, summed as
        numpy's axis-0 sum does: from +0.0 in row order (pairwise from
        eight rows on a single state)."""
        if n == 1 and k > 8:
            s = float(np.sum([row[0] for row in rows[:-1]]))
        else:
            s = 0.0
            for row in rows[:-1]:
                s += row[j]
        rows[-1][j] = xs[j] - s

    def rows_of(theta):
        """The split's parts as float lists: the free parts of the flat
        list ``theta``, then the remainder that makes them sum to the
        target, summed in one pass as ``settle`` sums each entry."""
        rows = [theta[r * n:(r + 1) * n] for r in range(k - 1)]
        if n == 1 and k > 8:
            rows.append([0.0])
            settle(rows, 0)
            return rows
        s = [0.0] * n
        for row in rows:
            s = list(map(add, s, row))
        return rows + [list(map(sub, xs, s))]

    def total_of(theta):
        return math.fsum(
            [rho._score(v, space) for rho, v in zip(members, rows_of(theta))]
        )

    rng = np.random.default_rng(config.seed)
    starts = [np.tile(xv / k, k - 1), np.zeros(free)]
    if k == 2:
        starts.append(xv.copy())
    while len(starts) < config.starts:
        starts.append(rng.uniform(lo, hi, size=free))

    grid = np.linspace(lo, hi, config.scan_points).tolist()
    best_theta, best_val, best_idx = None, math.inf, -1
    for s_idx, theta0 in enumerate(starts[: config.starts]):
        rows = rows_of(np.clip(theta0.astype(float), lo, hi).tolist())
        charges = [rho._score(v, space) for rho, v in zip(members, rows)]
        value = math.fsum(charges)
        converged = False
        for _ in range(config.max_sweeps):
            before = value
            for r in range(k - 1):
                rho, row = members[r], rows[r]
                for j in range(n):
                    part = rho._line(row, j, space)
                    rest = members[-1]._line(rows[-1], j, space)

                    def line(t):
                        row[j] = t
                        settle(rows, j)
                        charges[r] = part(t)
                        charges[-1] = rest(rows[-1][j])
                        return math.fsum(charges)

                    old = row[j]
                    t_best, v_best = _golden_line(line, grid)
                    # leave the line at its best point, or where it started
                    value, t = (v_best, t_best) if v_best < value else (value, old)
                    line(t)
            if before - value < _IMPROVE_TOL:
                converged = True
                break
        if not converged:
            meta["converged"] = False
        if value < best_val - 1e-15:
            best_theta = [v for row in rows[:-1] for v in row]
            best_val, best_idx = value, s_idx

    meta["best_start"] = best_idx
    best_theta, best_val = _direction_polish(
        total_of, best_theta, best_val, lo, hi, rng, config
    )
    parts = tuple(
        LossProfile(space, v, _validate=False) for v in rows_of(best_theta)
    )
    # best_val is the charge of these very rows, bit for bit
    return SplitSolution(parts, best_val, meta)


def ccp_margin(fam, admissible, x, config=None, assume_normal=False):
    """Effective margin: cheapest inf-convolution over admissible subsets.

    ``admissible`` lists nonempty tuples of 0-based member indices.
    Returns the minimizing subset with its split; ties go to the earlier
    subset in list order.
    """
    best = None
    for subset, sub in _admissible(fam, admissible):
        sol = inf_convolution(sub, x, config, assume_normal)
        if best is None or sol.total < best[1].total - 1e-15:
            best = (subset, sol)
    return best


# (subset, subfamily) pairs of a nonempty ``admissible`` list, each subset
# checked by ``subfamily``
def _admissible(fam, admissible):
    pairs = [(tuple(a), fam.subfamily(a)) for a in admissible]
    if not pairs:
        raise DomainError("admissible list must be nonempty")
    return pairs


def ecb_blend(fam, weight, x):
    """Caution-weighted mix of the most and least conservative member."""
    w = _check_blend_weight(weight)
    vals = fam.values(x)
    return w * float(vals.max()) + (1.0 - w) * float(vals.min())


def _check_blend_weight(weight):
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise DomainError("blend weight must lie in [0, 1], got %g" % w)
    return w


# -- Evaluator wrappers -----------------------------------------------------


def _gate(fam, config):
    """Raise unless the normality gate passes for ``fam``.  A family with
    an exact split rule passes at once: P lies in each member's dual set,
    so every split total is at least E_P of the target."""
    if _exact_split(fam) is not None:
        return
    config = config or SolverConfig()
    report = normality_check(fam, _NORMALITY_SAMPLES, config.seed)
    if not report.passed:
        raise DomainError(
            "normality gate failed (zero-sum witness with total %.6g); "
            "the split total may be unbounded below" % report.witness["total"]
        )


def _family_measure(fam, label, allowed, fn):
    """Evaluator pinned to the family space, claiming those ``allowed``
    claims that every member carries."""
    claims = set(allowed)
    for rho in fam.members:
        claims &= rho.claims
    return RiskEvaluator(label, fn, tuple(sorted(claims)), required_n=fam.space.n)


# The aggregate factories check their parameters when the evaluator is
# built, with the checks that the public function of each call runs again.
def choquet_measure(fam, mu, name=None):
    """Choquet aggregate as a reusable evaluator pinned to the family space."""
    _check_capacity(fam, mu)
    return _family_measure(
        fam, name or "choquet[%d members]" % fam.size, _PASS_THROUGH_EXACT,
        lambda x: choquet_aggregate(fam, mu, x),
    )


def ecb_blend_measure(fam, weight, name=None):
    _check_blend_weight(weight)
    return _family_measure(
        fam, name or "blend[%g]" % weight, _PASS_THROUGH_EXACT,
        lambda x: ecb_blend(fam, weight, x),
    )


def ccp_margin_measure(fam, admissible, config=None, name=None, assume_normal=False):
    """Margin pipeline as an evaluator.  The normality gate runs once per
    multi-member admissible subset at construction, not on every call."""
    pairs = _admissible(fam, admissible)
    if not assume_normal:
        for _, sub in pairs:
            if sub.size > 1:
                _gate(sub, config)
    return _family_measure(
        fam, name or "margin[%d subsets]" % len(pairs), _PASS_THROUGH,
        lambda x: ccp_margin(fam, admissible, x, config, assume_normal=True)[1].total,
    )


def infconv_measure(fam, config=None, name=None, assume_normal=False):
    """Inf-convolution as an evaluator; the normality gate runs once."""
    if not assume_normal and fam.size > 1:
        _gate(fam, config)
    return _family_measure(
        fam, name or "infconv[%d members]" % fam.size, _PASS_THROUGH,
        lambda x: inf_convolution(fam, x, config, assume_normal=True).total,
    )
