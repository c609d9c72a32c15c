"""Minimum-of-convex-measures representations for star-shaped measures.

Every probe position Y yields a dominating convex measure whose
acceptance set is the segment from Y - rho(Y) to 0 minus the positive
cone (a cone through Y - rho(Y) in the homogeneous case).  The measure
itself is recovered as the pointwise minimum of these envelope members,
tight at the generating position.  The same machinery realizes the
representation formulas for averages, extrema, and inf-convolutions of
families, and the grid conjugate recovers penalty functions of convex
members on finite spaces.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .state_space import DimensionError, DomainError, LossProfile
from .axioms import _first_violation, _usable, check_axiom
from .measures import RiskEvaluator
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
# penalty_of reports a conjugate that exceeds this as +inf
_PENALTY_CAP = 1e6


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
        if res.min() > _RESIDUAL_TOL or res.max() < -_RESIDUAL_TOL:
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

    Minimizes f(a) = max_state(x - a * residual) over a in [0, 1]
    (a >= 0 in the cone case).  f is a maximum of affine lines, so its
    minimum sits at a = 0, at a = 1 on the segment, or where two lines
    cross; all candidates are enumerated exactly.
    """
    if not x.space.same_as(member.y.space):
        raise DimensionError("profile and envelope member live on different spaces")
    xv = x.values
    r = member.residual.values
    n = xv.size

    candidates = [0.0]
    if not member.homogeneous:
        candidates.append(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            dr = r[i] - r[j]
            if dr == 0.0:
                continue
            a = (xv[i] - xv[j]) / dr
            if a < 0.0:
                continue
            if not member.homogeneous and a > 1.0:
                continue
            candidates.append(a)

    return min(float(np.max(xv - a * r)) for a in candidates)


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
    claims = ["monotone", "translation_invariant", "normalized", "convex",
              "star_shaped"]
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
    n = x.space.n
    return [
        LossProfile(x.space, rng.uniform(-5.0, 5.0, size=n), _validate=False)
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

    ``alpha`` entries are nonnegative, possibly +inf.  Groundedness (the
    finite minimum sitting at 0) is asserted at construction, so tables
    are only built from scenario lists that reach the measure's dual
    set.
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
    axes = [np.linspace(-box, box, per_axis)] * n
    return np.array(list(product(*axes)))


def _conjugate_on_grid(gamma, space, q, box, per_axis):
    pts = _grid_points(space.n, box, per_axis)
    best, arg = -math.inf, None
    for row in pts:
        v = float(q @ row) - gamma(LossProfile(space, row, _validate=False))
        if v > best:
            best, arg = v, row
    return best, arg


def penalty_of(gamma, space, scenarios, box=8.0, step=0.25):
    """Conjugate sup_X (E_Q[X] - gamma(X)) per scenario, by grid search.

    The base pass scans the box at the given step.  One refinement pass
    follows: an interior argmax is polished on a local grid at a quarter
    of the step; an argmax stuck on the box boundary triggers geometric
    box expansion (resolution scaled along), and values that exceed 1e6
    on the way are reported as +inf.  Scenario vectors must be
    nonnegative but may sit outside the probability simplex; improper
    weightings are exactly what exposes unbounded penalties on small
    spaces.
    """
    scen = [np.asarray(q, dtype=float) for q in scenarios]
    for q in scen:
        if q.size != space.n or np.any(q < 0.0) or not np.all(np.isfinite(q)):
            raise DomainError("scenario weights must be nonnegative, one per state")
    per_axis = int(round(2 * box / step)) + 1

    alphas = []
    for q in scen:
        best, arg = _conjugate_on_grid(gamma, space, q, box, per_axis)
        cur_box, cur_step = box, step
        # Refinement pass: chase boundary argmaxes outward first.
        expansions = 0
        while (
            np.max(np.abs(arg)) >= cur_box - 1e-12
            and best <= _PENALTY_CAP
            and expansions < 12
        ):
            cur_box *= 4.0
            cur_step *= 4.0
            best, arg = _conjugate_on_grid(gamma, space, q, cur_box, per_axis)
            expansions += 1
        if best > _PENALTY_CAP:
            alphas.append(math.inf)
            continue
        if np.max(np.abs(arg)) < cur_box - 1e-12:
            # Interior argmax: local regrid at a quarter step.
            fine = np.linspace(-cur_step, cur_step, 9)
            for offset in product(*[fine] * space.n):
                row = np.clip(arg + np.array(offset), -cur_box, cur_box)
                v = float(q @ row) - gamma(LossProfile(space, row, _validate=False))
                if v > best:
                    best = v
        alphas.append(max(best, 0.0))

    return PenaltyTable(
        space,
        tuple(scen),
        np.array(alphas),
        {"box": box, "step": step, "cap": _PENALTY_CAP},
    )
