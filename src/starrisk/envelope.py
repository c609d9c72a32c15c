"""Minimum-of-convex-measures representations for star-shaped measures.

Every probe position Y yields a dominating convex measure whose
acceptance set is the segment from Y - rho(Y) to 0 minus the positive
cone (a cone through Y - rho(Y) in the homogeneous case).  The measure
itself is recovered as the pointwise minimum of these envelope members,
tight at the generating position.  The same machinery realizes the
representation formulas for averages, extrema, and inf-convolutions of
families, and closed forms or a grid conjugate recover penalty functions
of convex members on finite spaces.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .state_space import MASS_TOL, DimensionError, DomainError, LossProfile
from .axioms import _PROBE_BOUND, _first_violation, _usable, check_axiom
from .measures import _MONETARY, RiskEvaluator
from .aggregate import SolverConfig, MeasureFamily, inf_convolution

__all__ = [
    "EnvelopeMember",
    "PenaltyTable",
    "envelope_evaluate",
    "envelope_family",
    "envelope_member_measure",
    "min_representation_check",
    "relaxation_member",
    "aggregate_representation_check",
    "penalty_of",
]

_RESIDUAL_TOL = 1e-8
# split solver settings of the infconv representation check
_INFCONV_CHECK_CONFIG = SolverConfig(starts=6, scan_points=9)
# penalty_of reports a conjugate that exceeds this as +inf, and refuses a
# grid with more rows per pass than this
_PENALTY_CAP = 1e6
_GRID_ROWS_MAX = 2**24


class EnvelopeMember:
    """Dominating convex measure generated at one position.

    ``residual`` is y - rho_y componentwise.  A monotone normalized
    measure keeps rho_y between min(y) and max(y), so the residual must
    straddle zero; this is asserted because the evaluation formula
    relies on it for a finite minimum in the cone case.
    """

    __slots__ = ("y", "rho_y", "residual", "homogeneous")

    def __init__(self, y, rho_y, homogeneous=False):
        rho_y = float(rho_y)
        res = y.values - rho_y
        # within 1e-8 times max(1, max|y|), so that rounding at large
        # scale passes
        tol = _RESIDUAL_TOL * max(1.0, float(np.abs(y.values).max()))
        if res.min() > tol or res.max() < -tol:
            raise DomainError(
                "residual of an envelope member must straddle 0; "
                "got range [%g, %g]" % (res.min(), res.max())
            )
        self.y = y
        self.rho_y = rho_y
        self.residual = LossProfile(y.space, res, _validate=False)
        self.homogeneous = bool(homogeneous)


def envelope_evaluate(member, x):
    """Charge of ``x`` under the member's acceptance set.

    Minimizes the convex f(a) = max_state(x - a * residual) over a in
    [0, 1] (a >= 0 in the cone case).  f is the upper envelope of one
    line per state, built in O(n log n) by sorting the slopes -residual.
    Its minimum sits at a = 0, at a = 1 on the segment, at the vertex
    where the envelope turns from falling to rising, or on a flat piece,
    where f is exactly that state's x (on a cone, also when the piece
    starts at a crossing that overflows).  These candidates and the
    finite vertex before the turn are scored as max(x - a * residual),
    and the first minimum is returned (NaN only when f(0) is NaN).
    Scoring every crossing instead can differ in the sign of a zero and
    in the last bits; both stay within 4 * 2**-52 * max|x| of the exact
    minimum (2.01 measured).
    """
    if not x.space.same_as(member.y.space):
        raise DimensionError("profile and envelope member live on different spaces")
    xv = x.values
    r = member.residual.values
    top = math.inf if member.homogeneous else 1.0

    def cross(p, q):  # where lines p = (r_p, x_p) and q = (r_q, x_q) meet
        return (p[1] - q[1]) / (p[0] - q[0])

    # lines by slope -r ascending; hull[k] takes over at at[k]
    hull, at = [], []
    for line in sorted(zip(r.tolist(), xv.tolist()), reverse=True):
        if hull and hull[-1][0] == line[0]:
            continue  # an equal slope with a larger x came first
        # strict: lines through one point all stay, with their crossings
        while len(hull) > 1 and at[-1] > cross(hull[-1], line):
            hull.pop()
            at.pop()
        at.append(cross(hull[-1], line) if hull else -math.inf)
        hull.append(line)
    k = len(hull)  # hull[k] is the first rising line, at[k] the turn
    while k and hull[k - 1][0] < 0.0:
        k -= 1
    cands = [0.0] if member.homogeneous else [0.0, 1.0]
    # the finite vertices at either end of the last line before the turn
    cands += [a for a in at[max(k - 1, 1):k + 1] if 0.0 <= a <= top and a != math.inf]
    scores = np.maximum.reduce(xv - np.array(cands)[:, None] * r, 1).tolist()
    if k and hull[k - 1][0] == 0.0:
        # on a flat piece inside the range f is exactly that state's x; on
        # a cone a piece starting at an overflowed crossing is inside too
        start, end = max(at[k - 1], 0.0), at[k] if k < len(at) else math.inf
        if start < min(end, top) or start == top == math.inf:
            scores.append(hull[k - 1][1])
    return min(scores)


def envelope_family(rho, ys, homogeneous=False):
    """One dominating member per generating position, tight there.

    The cone (coherent) variant is only sound for positively homogeneous
    measures; the claim flag is required and re-verified on the supplied
    positions before construction.
    """
    ys = list(ys)
    if homogeneous:
        if "positively_homogeneous" not in rho.claims:
            raise DomainError(
                "cone envelopes need a positively_homogeneous measure"
            )
        for y in ys[:8]:
            vy = rho(y)
            for lam in (0.5, 2.0):
                if abs(rho(lam * y) - lam * vy) > 1e-9:
                    raise DomainError(
                        "measure %r failed the homogeneity recheck at scale %g"
                        % (rho.name, lam)
                    )
    return [EnvelopeMember(y, rho(y), homogeneous) for y in ys]


def envelope_member_measure(member, name=None):
    """The member as a standalone evaluator.

    Segment members are convex monetary measures; cone members are
    additionally positively homogeneous, hence coherent.
    """
    claims = list(_MONETARY) + ["convex", "star_shaped"]
    if member.homogeneous:
        claims += ["positively_homogeneous", "subadditive"]
    label = name or ("cone_member" if member.homogeneous else "segment_member")
    return RiskEvaluator(
        label,
        lambda x: envelope_evaluate(member, x),
        claims,
        required_n=member.y.space.n,
    )


def _domination_positions(x, count, rng):
    """Random generating positions on the probe's own space."""
    return [
        LossProfile(x.space, rng.uniform(-_PROBE_BOUND, _PROBE_BOUND, size=x.space.n),
                    _validate=False)
        for _ in range(count)
    ]


def min_representation_check(rho, probes, tol=1e-9, domination_samples=50):
    """Tightness and domination of the envelope on every probe.

    The member generated at the probe itself must reproduce the measure
    within ``tol``; members generated anywhere else must not undershoot
    it.  Together these certify the minimum representation on the
    sample.  The verdict, ``probes_used`` and witness stop at the first
    violation; ``rows`` holds one dict per probe all the same, with keys
    x, rho_x, tight_member_value, min_family_value, domination_ok.
    """
    homogeneous = "positively_homogeneous" in rho.claims
    rng = np.random.default_rng((int(probes.seed), 0x0e))
    checks, rows = [], []  # witness-or-None per check; one row per probe
    for x in _usable(rho, probes):
        rho_x = rho(x)
        tight = envelope_evaluate(EnvelopeMember(x, rho_x, homogeneous), x)
        ok = abs(tight - rho_x) <= tol
        checks.append(None if ok else {
            "x": x.values.copy(), "rho_x": rho_x, "tight_value": tight,
        })
        low = tight
        for y in _domination_positions(x, domination_samples, rng):
            v = envelope_evaluate(EnvelopeMember(y, rho(y), homogeneous), x)
            low = min(low, v)
            bad = v < rho_x - tol
            ok = ok and not bad
            checks.append({
                "x": x.values.copy(), "y": y.values.copy(), "rho_x": rho_x,
                "member_value": v,
            } if bad else None)
        rows.append({
            "x": x.values.tolist(), "rho_x": rho_x, "tight_member_value": tight,
            "min_family_value": low, "domination_ok": bool(ok),
        })
    report = _first_violation("min_representation", checks, tol)
    return replace(report, rows=rows)


def relaxation_member(gamma, rho, probes, tol=1e-9):
    """Whether ``gamma`` belongs to the relaxed dominating class of ``rho``.

    Membership asks for a convex monetary measure that dominates the
    target; both parts are checked on the probes only, so a True is
    evidence, not proof.
    """
    for prop in ("monotone", "translation_invariant", "normalized", "convex"):
        if check_axiom(gamma, prop, probes, tol).verdict == "violated":
            return False
    need = getattr(rho, "required_n", None)
    return all(
        not gamma(x) < rho(x) - tol
        for x in _usable(gamma, probes)
        if need is None or x.space.n == need
    )


def aggregate_representation_check(fams, op, probes, tol=1e-9):
    """Representation formulas for combined measures, checked on probes.

    ``fams`` lists (measure, members) pairs as produced by
    envelope_family.  Per probe the member generated at the probe itself
    is added to each family, which is what makes the minima attained.

    average: the equally weighted average measure equals the minimum over
      per-family picks of the weighted member sum.
    inf: the pointwise-minimum measure equals the minimum over the union
      family.
    sup: the pointwise-maximum measure is star-shaped but its raw
      dominating families may have empty intersection, so the formula is
      checked through the relaxed class: envelope members of the sup
      measure itself, which dominate every constituent.
    infconv: at desk scale, the split-optimal member pair reproduces the
      measure-level inf-convolution, and sampled pairs never beat it; the
      splits use ``SolverConfig(starts=6, scan_points=9)``.
    """
    fams = [(rho, list(members)) for rho, members in fams]
    if not fams:
        raise DomainError("need at least one (measure, family) pair")
    if op not in _AGGREGATE_CASES:
        raise DomainError("unsupported aggregation op %r" % op)
    if op == "infconv" and len(fams) != 2:
        raise DomainError("infconv representation check is pairwise")

    case = _AGGREGATE_CASES[op]
    rng = np.random.default_rng((int(probes.seed), 0x5b))

    def cases():
        for x in probes.profiles:
            target, got, ok = case(fams, x, [rho(x) for rho, _ in fams], tol, rng)
            yield None if ok else {"x": x.values.copy(), "target": target, "got": got}

    return _first_violation("aggregate_representation[%s]" % op, cases(), tol)


def _member_values(fams, x):
    """Per family, each member's charge of x plus that of the member
    generated at x itself."""
    out = []
    for rho, members in fams:
        tight = EnvelopeMember(x, rho(x))
        out.append([envelope_evaluate(m, x) for m in members + [tight]])
    return out


def _average_case(fams, x, rho_vals, tol, rng):
    weights = np.full(len(fams), 1.0 / len(fams))
    target = float(weights @ rho_vals)
    per_fam = _member_values(fams, x)
    got = math.fsum(w * min(vals) for w, vals in zip(weights, per_fam))
    # Any pick of one member per family must dominate.
    ok = abs(got - target) <= tol and not any(
        math.fsum(w * v for w, v in zip(weights, pick)) < target - tol
        for pick in product(*(vals[:3] for vals in per_fam))
    )
    return target, got, ok


def _inf_case(fams, x, rho_vals, tol, rng):
    target = min(rho_vals)
    got = min(v for vals in _member_values(fams, x) for v in vals)
    return target, got, abs(got - target) <= tol


def _sup_case(fams, x, rho_vals, tol, rng):
    target = max(rho_vals)
    got = envelope_evaluate(EnvelopeMember(x, target), x)
    ok = abs(got - target) <= tol
    # Sampled members of the relaxed class: envelope members of the sup
    # measure generated elsewhere.  Each must dominate the sup at x, hence
    # every constituent.
    for y in _domination_positions(x, 3, rng):
        sup_y = max(rho(y) for rho, _ in fams)
        v = envelope_evaluate(EnvelopeMember(y, sup_y), x)
        if v < target - tol or any(v < rv - tol for rv in rho_vals):
            return target, v, False
    return target, got, ok


def _infconv_case(fams, x, rho_vals, tol, rng):
    def split_total(members):
        fam = MeasureFamily(members, x.space)
        return inf_convolution(fam, x, _INFCONV_CHECK_CONFIG, assume_normal=True)

    sol = split_total([rho for rho, _ in fams])
    target = sol.total
    picks = [
        EnvelopeMember(part, rho(part)) for (rho, _), part in zip(fams, sol.parts)
    ]
    got = split_total([envelope_member_measure(m) for m in picks]).total
    ok = abs(got - target) <= tol
    # A sampled non-optimal pick must not undershoot.
    if ok and all(members for _, members in fams):
        other = [envelope_member_measure(members[0]) for _, members in fams]
        ok = not split_total(other).total < target - tol
    return target, got, ok


#: Aggregation op -> case function mapping (fams, probe, measure values at
#: the probe, tol, rng) to (target, got, ok).
_AGGREGATE_CASES = {
    "average": _average_case,
    "inf": _inf_case,
    "sup": _sup_case,
    "infconv": _infconv_case,
}


# -- Penalty functions -------------------------------------------------------


@dataclass(frozen=True)
class PenaltyTable:
    """Grid conjugates of a convex measure over scenario weightings.

    ``alpha`` entries are nonnegative up to rounding, possibly +inf.  A
    closed-form entry is the conjugate itself; a finite grid entry is the
    best grid value found, so it is a lower bound of the conjugate.
    Groundedness (the finite minimum sitting at 0) is asserted at
    construction, so tables are only built from scenario lists that
    reach the measure's dual set.
    """

    space: object
    scenarios: tuple
    alpha: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        finite = self.alpha[np.isfinite(self.alpha)]
        if finite.size and finite.min() > 1e-6:
            raise DomainError(
                "penalty table not grounded: min finite alpha is %g"
                % finite.min()
            )

    def reconstruct(self, x):
        """Best lower bound sup_Q (E_Q[x] - alpha(Q)) over the table."""
        vals = [
            float(q @ x.values) - a
            for q, a in zip(self.scenarios, self.alpha)
            if math.isfinite(a)
        ]
        if not vals:
            raise DomainError("no finite-penalty scenario to reconstruct from")
        return max(vals)


def _grid_points(n, box, per_axis):
    # the cube [-box, box]**n, one point per row, the last axis fastest
    axes = np.meshgrid(*[np.linspace(-box, box, per_axis)] * n, indexing="ij")
    return np.stack(axes, -1).reshape(-1, n)


def _conjugate(q, points, charges):
    """Largest E_Q[X] - charge(X) over the rows X, and the first X at it."""
    best, arg = -math.inf, None
    for row, charge in zip(points, charges):
        v = float(q @ row) - charge
        if v > best:
            best, arg = v, row
    return best, arg


def _dual_penalty(law, p, q):
    """alpha(Q) of a box level or entropic lam, for float lists p and q."""
    if abs(math.fsum(q) - 1.0) > MASS_TOL:
        return math.inf
    if law.lam is not None:
        return law.lam * math.fsum([a * math.log(a / b) for a, b in zip(q, p) if a > 0.0])
    if law.level < 1.0 and any(a > b / (1.0 - law.level) + MASS_TOL for a, b in zip(q, p)):
        return math.inf
    return 0.0


def penalty_of(gamma, space, scenarios, box=8.0, step=0.25):
    """Conjugate alpha(Q) = sup_X (E_Q[X] - gamma(X)) per scenario Q.

    A gamma whose law record has a box level b (mean, ES, worst case) or
    an entropic parameter lam is priced in closed form, with no grid:
    alpha is +inf unless sum(q) is 1 within ``MASS_TOL``; b gives 0 when
    every q <= p / (1 - b) + ``MASS_TOL`` (no cut at b = 1), else +inf;
    lam gives lam * sum q log(q / p), with 0 log 0 = 0.

    Any other gamma is searched on grids of at most 2**24 rows each.
    Passes scan the boxes box * 4**k (k = 0..12) at step * 4**k, each
    row charged once by ``RiskEvaluator._score`` for every scenario still
    searching.  A scenario keeps its best pass and stops at the first pass
    whose argmax is interior, whose value exceeds 1e6 (reported as +inf),
    or that does not raise its value.  For a cash-invariant gamma the
    first argmax in row order sits on the box edge: with sum(q) = 1 the
    grid's maximizers run along (1, ..., 1) out to the edge, and otherwise
    the sup is unbounded.  For any other gamma an interior argmax is real,
    and its entry keeps that pass's grid value, a lower bound.

    ``box``, ``step`` and ``2 * box / step`` must be finite and positive.
    Scenario vectors must be nonnegative but may sit outside the
    probability simplex; improper weightings are exactly what exposes
    unbounded penalties on small spaces.
    """
    if not (0.0 < box < math.inf and 0.0 < step < math.inf
            and 2 * box / step < math.inf):
        raise DomainError("penalty box and step must be finite and positive, "
                          "with 2 * box / step finite, got box=%r, step=%r"
                          % (box, step))
    scen = [np.asarray(q, dtype=float) for q in scenarios]
    for q in scen:
        if q.size != space.n or np.any(q < 0.0) or not np.all(np.isfinite(q)):
            raise DomainError("scenario weights must be nonnegative, one per state")
    meta = {"box": box, "step": step, "cap": _PENALTY_CAP}
    law = gamma._law
    if law is not None and (law.level is not None or law.lam is not None):
        alpha = [_dual_penalty(law, space._plain_probs(), q.tolist()) for q in scen]
        return PenaltyTable(space, tuple(scen), np.array(alpha), meta)
    per_axis = int(round(2 * box / step)) + 1
    # per_axis >= 2 reaches the cap by the 25th power, and 1 never does
    if per_axis ** min(space.n, 25) > _GRID_ROWS_MAX:
        raise DomainError("penalty grid of %d**%d rows exceeds %d"
                          % (per_axis, space.n, _GRID_ROWS_MAX))

    best = [-math.inf] * len(scen)
    searching, k = range(len(scen)), 0
    while searching and k <= 12:  # the base box and up to 12 expansions
        cur_box = box * 4.0**k
        points = _grid_points(space.n, cur_box, per_axis)
        charges = [gamma._score(row, space) for row in points.tolist()]
        still = []
        for i in searching:
            value, arg = _conjugate(scen[i], points, charges)
            if not value > best[i]:
                continue  # the wider box found nothing better
            if value > _PENALTY_CAP:
                best[i] = math.inf
                continue
            best[i] = value
            if np.max(np.abs(arg)) >= cur_box - 1e-12:
                still.append(i)  # argmax on the box edge: widen the box
        searching, k = still, k + 1
    if -math.inf in best:  # no row of the base grid gave a number
        raise DomainError("no finite conjugate value on the penalty grid")
    alpha = np.array([max(b, 0.0) for b in best])
    return PenaltyTable(space, tuple(scen), alpha, meta)
