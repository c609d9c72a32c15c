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


def aggregate_representation_check(fams, op, probes, tol=1e-9, weights=None,
                                   config=None):
    """Representation formulas for combined measures, checked on probes.

    ``fams`` lists (measure, members) pairs as produced by
    envelope_family.  Per probe the member generated at the probe itself
    is added to each family, which is what makes the minima attained.

    average: the weighted average measure equals the minimum over
      per-family picks of the weighted member sum.
    inf: the pointwise-minimum measure equals the minimum over the union
      family.
    sup: the pointwise-maximum measure is star-shaped but its raw
      dominating families may have empty intersection, so the formula is
      checked through the relaxed class: envelope members of the sup
      measure itself, which dominate every constituent.
    infconv: at desk scale, the split-optimal member pair reproduces the
      measure-level inf-convolution, and sampled pairs never beat it.
    """
    fams = [(rho, list(members)) for rho, members in fams]
    if not fams:
        raise DomainError("need at least one (measure, family) pair")
    k = len(fams)
    if weights is None:
        weights = np.full(k, 1.0 / k)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.size != k or np.any(weights < 0.0):
            raise DomainError("weights must be nonnegative, one per family")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")
    if op not in ("sup", "inf", "average", "infconv"):
        raise DomainError("unsupported aggregation op %r" % op)
    if op == "infconv" and k != 2:
        raise DomainError("infconv representation check is pairwise")

    cases = _aggregate_cases(fams, op, probes, tol, weights, config)
    return _first_violation("aggregate_representation[%s]" % op, cases, tol)


def _aggregate_cases(fams, op, probes, tol, weights, config):
    """Witness-or-None per probe for aggregate_representation_check."""
    rng = np.random.default_rng((int(probes.seed), 0x5b))

    def sup_measure(x):
        return max(rho(x) for rho, _ in fams)

    def member_values(x):
        out = []
        for rho, members in fams:
            tight = EnvelopeMember(x, rho(x))
            out.append([envelope_evaluate(m, x) for m in members + [tight]])
        return out

    for x in probes.profiles:
        rho_vals = [rho(x) for rho, _ in fams]

        if op == "average":
            target = float(weights @ rho_vals)
            per_fam = member_values(x)
            got = math.fsum(w * min(vals) for w, vals in zip(weights, per_fam))
            ok = abs(got - target) <= tol
            # Any pick of one member per family must dominate.
            if ok:
                for pick in product(*(vals[:3] for vals in per_fam)):
                    if math.fsum(w * v for w, v in zip(weights, pick)) < target - tol:
                        ok = False
                        break
        elif op == "inf":
            target = min(rho_vals)
            union = [v for vals in member_values(x) for v in vals]
            got = min(union)
            ok = abs(got - target) <= tol
        elif op == "sup":
            target = max(rho_vals)
            sup_tight = EnvelopeMember(x, target)
            got = envelope_evaluate(sup_tight, x)
            ok = abs(got - target) <= tol
            # Sampled members of the relaxed class: envelope members of
            # the sup measure generated elsewhere.  Each must dominate
            # the sup at x, hence every constituent.
            for y in _domination_positions(x, 3, rng):
                v = envelope_evaluate(EnvelopeMember(y, sup_measure(y)), x)
                if v < target - tol or any(v < rv - tol for rv in rho_vals):
                    ok = False
                    got = v
                    break
        else:  # infconv
            cfg = config or SolverConfig(starts=6, scan_points=9)
            fam = MeasureFamily([fams[0][0], fams[1][0]], x.space)
            sol = inf_convolution(fam, x, cfg, assume_normal=True)
            target = sol.total
            picks = [
                EnvelopeMember(part, rho(part))
                for (rho, _), part in zip(fams, sol.parts)
            ]
            pair = MeasureFamily(
                [envelope_member_measure(m) for m in picks], x.space
            )
            got = inf_convolution(pair, x, cfg, assume_normal=True).total
            ok = abs(got - target) <= tol
            # A sampled non-optimal pick must not undershoot.
            if ok and fams[0][1] and fams[1][1]:
                other = MeasureFamily(
                    [
                        envelope_member_measure(fams[0][1][0]),
                        envelope_member_measure(fams[1][1][0]),
                    ],
                    x.space,
                )
                v = inf_convolution(other, x, cfg, assume_normal=True).total
                if v < target - tol:
                    ok = False

        yield None if ok else {"x": x.values.copy(), "target": target, "got": got}


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


def penalty_of(gamma, space, scenarios, box=8.0, step=0.25, cap=1e6):
    """Conjugate sup_X (E_Q[X] - gamma(X)) per scenario, by grid search.

    The base pass scans the box at the given step.  One refinement pass
    follows: an interior argmax is polished on a local grid at a quarter
    of the step; an argmax stuck on the box boundary triggers geometric
    box expansion (resolution scaled along), and values that exceed
    ``cap`` on the way are reported as +inf.  Scenario vectors must be
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
            and best <= cap
            and expansions < 12
        ):
            cur_box *= 4.0
            cur_step *= 4.0
            best, arg = _conjugate_on_grid(gamma, space, q, cur_box, per_axis)
            expansions += 1
        if best > cap:
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
        {"box": box, "step": step, "cap": cap},
    )
