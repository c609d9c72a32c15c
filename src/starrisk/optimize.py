"""Risk minimization over finite action sets and the mitigation operator.

Minimizing a star-shaped measure over actions decomposes into a joint
minimization over (dominating convex member, action) pairs: the measure
is a minimum of convex members, and two infima exchange.  The checks
here verify that exchange on exhaustively solvable tables, both for a
single measure and for the robust worst member of a family.  The
mitigation operator goes the other way around: choosing the best
mitigating action under per-action convex criteria leaves a pointwise
minimum that is star-shaped but in general no longer convex.
"""

import math

import numpy as np

from .state_space import DimensionError, DomainError, LossProfile, StateSpace
from .axioms import AxiomReport
from .aggregate import MeasureFamily
from .measures import RiskEvaluator
from .envelope import envelope_family, envelope_member_measure

__all__ = [
    "InfeasibleError",
    "ActionLossTable",
    "PortfolioProblem",
    "minimize_risk",
    "robust_minimize",
    "decomposition_check",
    "mitigated_measure",
    "portfolio_exhaustive",
    "portfolio_select",
]

# price comparisons tolerate accumulated dot-product noise
_BUDGET_TOL = 1e-12


class InfeasibleError(DomainError):
    """No candidate satisfies the budget constraint."""


class ActionLossTable:
    """One loss profile per action, all on a shared state space."""

    __slots__ = ("actions", "losses")

    def __init__(self, actions, losses):
        actions = tuple(actions)
        losses = tuple(losses)
        if not actions:
            raise DomainError("need at least one action")
        if len(actions) != len(set(actions)):
            raise DomainError("action labels must be unique")
        if len(actions) != len(losses):
            raise DomainError(
                "%d actions but %d loss rows" % (len(actions), len(losses))
            )
        space = losses[0].space
        for row in losses[1:]:
            if not row.space.same_as(space):
                raise DimensionError("loss rows live on different spaces")
        self.actions = actions
        self.losses = losses

    @property
    def size(self):
        return len(self.actions)

    def items(self):
        return zip(self.actions, self.losses)


class PortfolioProblem:
    """Static selection: candidate payoffs, pricing weights, a budget.

    ``pricing`` is the risk-neutral weight vector used for the cost
    constraint E_Q[X] <= budget; candidates are payoff profiles whose
    sign is flipped before risk evaluation, since measures act on
    losses.
    """

    __slots__ = ("pricing", "budget", "feasible")

    def __init__(self, pricing, budget, feasible):
        feasible = tuple(feasible)
        if not feasible:
            raise DomainError("need at least one candidate payoff")
        space = feasible[0].space
        for x in feasible[1:]:
            if not x.space.same_as(space):
                raise DimensionError("candidate payoffs live on different spaces")
        pricing = StateSpace(pricing).probs  # reuse probability validation
        if pricing.size != space.n:
            raise DimensionError(
                "pricing vector has %d weights for %d states"
                % (pricing.size, space.n)
            )
        self.pricing = pricing
        self.budget = float(budget)
        self.feasible = feasible

    def price(self, payoff):
        return float(np.dot(self.pricing, payoff.values))


def _argmin(pairs, value):
    """(key, value(item)) at the least value over (key, item) pairs; the
    first pair wins ties, and (None, inf) when no value is below inf."""
    best, best_value = None, math.inf
    for key, item in pairs:
        v = value(item)
        if v < best_value:
            best, best_value = key, v
    return best, best_value


def minimize_risk(rho, table):
    """Exhaustive minimum of rho over the table; first action wins ties."""
    return _argmin(table.items(), rho)


def robust_minimize(fam, table):
    """Minimize the worst member value over actions; first-in-list ties."""
    return _argmin(table.items(), lambda loss: float(np.max(fam.values(loss))))


def decomposition_check(target, table, gammas, tol=1e-9):
    """Direct minimum versus the joint (member, action) minimum.

    ``gammas`` realize the dominating convex family, normally envelope
    members seeded at the table's own loss rows; for a family target the
    direct side is the robust minimum and the members should envelope
    the worst-member measure.  Holds when the two optima agree within
    ``tol`` and the direct argmin action attains the joint optimum.
    """
    return _decomposition(target, table, gammas, tol)[0]


def _decomposition(target, table, gammas, tol):
    """decomposition_check's report together with the direct argmin action,
    the direct value and the joint value it compared."""
    gammas = list(gammas)
    if not gammas:
        raise DomainError("need at least one dominating member")
    if isinstance(target, MeasureFamily):
        direct_action, direct_value = robust_minimize(target, table)
    else:
        direct_action, direct_value = minimize_risk(target, table)

    per_action = {}
    joint_value = math.inf
    joint_at = None
    for k, gamma in enumerate(gammas):
        for action, loss in table.items():
            value = gamma(loss)
            if value < per_action.get(action, math.inf):
                per_action[action] = value
            if value < joint_value:
                joint_value = value
                joint_at = (action, k)

    attaining = [a for a, v in per_action.items() if v <= joint_value + tol]
    ok = abs(direct_value - joint_value) <= tol and direct_action in attaining
    witness = None
    if not ok:
        witness = {
            "direct_action": direct_action,
            "direct_value": direct_value,
            "joint_value": joint_value,
            "joint_action": joint_at[0],
            "joint_member": joint_at[1],
            "attaining_actions": attaining,
        }
    report = AxiomReport(
        "risk_minimization_decomposition",
        "holds_on_sample" if ok else "violated",
        tol,
        len(gammas) * table.size,
        witness,
    )
    return report, direct_action, direct_value, joint_value


# properties a pointwise minimum inherits from its members
_MIN_STABLE = frozenset(
    [
        "monotone",
        "translation_invariant",
        "normalized",
        "law_invariant",
        "ssd_consistent",
        "positively_homogeneous",
    ]
)


def mitigated_measure(per_action):
    """Best-action value map X -> min over actions of rho_action(X).

    Each action carries the convex criterion faced after that
    mitigation is chosen.  The minimum stays monotone and cash additive
    and is star-shaped, but distinct members generally break convexity,
    which is the point of the construction.
    """
    items = list(per_action.items())
    if not items:
        raise DomainError("need at least one action")
    members = [rho for _, rho in items]
    for rho in members:
        if "convex" not in rho.claims:
            raise DomainError(
                "mitigation needs convex members; %r does not claim it"
                % rho.name
            )
    if all(rho is members[0] for rho in members):
        return members[0]

    pinned = {rho.required_n for rho in members if rho.required_n is not None}
    if len(pinned) > 1:
        raise DimensionError("members are pinned to different state counts")
    claims = frozenset.intersection(*[rho.claims for rho in members])
    claims = set(claims & _MIN_STABLE)
    if all({"star_shaped", "normalized"} & rho.claims for rho in members):
        claims.add("star_shaped")
    name = "mitigated[%s]" % "|".join(str(a) for a, _ in items)
    return RiskEvaluator(
        name,
        lambda x: min(rho(x) for rho in members),
        claims,
        required_n=pinned.pop() if pinned else None,
    )


def _within_budget(prob):
    feasible = [x for x in prob.feasible if prob.price(x) <= prob.budget + _BUDGET_TOL]
    if not feasible:
        cheapest = min(prob.price(x) for x in prob.feasible)
        raise InfeasibleError(
            "no candidate satisfies E_Q[X] <= %g; minimal attainable E_Q is %g"
            % (prob.budget, cheapest)
        )
    return feasible


def _loss_of(payoff):
    return LossProfile(payoff.space, -payoff.values)


def portfolio_exhaustive(rho, prob):
    """Direct route: evaluate rho on every affordable payoff's loss."""
    feasible = _within_budget(prob)
    return _argmin(zip(feasible, map(_loss_of, feasible)), rho)


def portfolio_select(rho, prob):
    """Member route: solve per dominating member, then pick the best member.

    Envelope members are seeded at the affordable candidates' losses, so
    the member minimum reproduces the measure on that set; exchanging
    the two minima then returns the same optimum as the direct route.
    """
    feasible = _within_budget(prob)
    losses = [_loss_of(x) for x in feasible]
    members = envelope_family(rho, losses)
    pairs = list(zip(feasible, losses))
    # per member, its best payoff and value; then the best of those
    return _argmin(
        (_argmin(pairs, envelope_member_measure(m)) for m in members),
        lambda value: value,
    )
