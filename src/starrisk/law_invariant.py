"""Distribution-level order tests and envelope representations.

Quantile and tail-average curves of acceptable positions act as
generator functions: subtracting a generator from the target's curve
and taking the supremum over levels gives a dominating measure, and the
minimum over generators recovers any law-invariant star-shaped measure
(tail-average curves require consistency with second-order dominance).
Both suprema are computed exactly on the merged breakpoint grid; the
curves are step functions (quantile case) or continuous with monotone
pieces (tail-average case), so no level between grid points can hide an
extremum.
"""

import operator
from itertools import accumulate

import numpy as np

from .state_space import MASS_TOL, DomainError, _merge_tol, distribution_of
from .measures import _es_table, es, mean, var, worst_case

__all__ = [
    "PrecisionError",
    "GeneratorCurve",
    "fsd_dominates",
    "ssd_dominates",
    "var_envelope_eval",
    "es_envelope_eval",
    "tail_event",
    "es_minimality_witness",
]


class PrecisionError(DomainError):
    """A requested probability mass is not realizable on this space."""


def _merged_interior(x, y):
    """Union of interior quantile breakpoints of two distributions, sorted,
    each once; running masses are positive, so only those below 1 are
    kept."""
    pts = np.sort(np.concatenate((x.cum[:-1], y.cum[:-1])))
    keep = pts < 1.0
    keep[1:] &= pts[1:] != pts[:-1]
    return pts[keep]


def _quantiles(d, points):
    """``var`` of ``d`` at each level of a float array in (0, 1], by one
    ``searchsorted``: the atom index ``bisect_left`` finds for each."""
    cells = d.cum.searchsorted(points - MASS_TOL)
    return d.values[np.minimum(cells, d.values.size - 1)]


def _slack(x, y):
    """Comparison slack for two laws: the merge tolerance (``_merge_tol``)
    of their joint range, the rule by which ``LossDistribution`` merges."""
    return _merge_tol(float(min(x.values[0], y.values[0])),
                      float(max(x.values[-1], y.values[-1])))


class GeneratorCurve:
    """Level curve of an acceptable position, by quantiles or tail averages.

    ``kind`` selects the curve: "var" is the step quantile function,
    "es" the continuous tail-average curve.  Acceptability leaves a
    nonpositive left end (the smallest value for quantiles, the mean for
    tail averages); both are asserted here since the envelope formulas
    lean on it.
    """

    __slots__ = ("source", "kind", "dist")

    def __init__(self, source, kind="var"):
        if kind not in ("var", "es"):
            raise DomainError("generator kind must be 'var' or 'es'")
        dist = distribution_of(source)
        left = dist.values[0] if kind == "var" else mean(dist)
        if left > 1e-9:
            raise DomainError(
                "generator curve must start nonpositive; got %g at 0+" % left
            )
        self.source = source
        self.kind = kind
        self.dist = dist

    def value_at(self, alpha):
        """g(alpha) for alpha in (0, 1); the es curve extends to [0, 1]."""
        if self.kind == "var":
            return var(self.dist, alpha)
        if alpha <= 0.0:
            return mean(self.dist)
        if alpha >= 1.0:
            return float(self.dist.values[-1])
        return es(self.dist, alpha)

    def to_dict(self):
        """Breakpoint serialization.

        "levels" are the interior cumulative breakpoints.  For quantile
        curves "values" holds one step value per cell (len(levels) + 1
        entries).  For tail-average curves "values" holds the curve at
        0, at each level, and at 1 (len(levels) + 2 entries).
        """
        levels = self.dist.cum[:-1]
        if self.kind == "var":
            values = self.dist.values.tolist()
        else:
            # at a level the running mass rounds up to 1, the curve is its
            # value at 1, the largest atom, as in value_at
            inside = levels[levels < 1.0]
            values = (
                [mean(self.dist)]
                + _es_table(self.dist, inside)
                + [float(self.dist.values[-1])] * (levels.size - inside.size + 1)
            )
        return {"kind": self.kind, "levels": levels.tolist(), "values": values}


def fsd_dominates(x, y):
    """Quantiles of ``x`` never exceed those of ``y`` at any level.

    Both quantile curves are constant on the cells of the merged
    breakpoint grid, so checking each cell's right endpoint covers all
    of (0, 1).
    """
    points = np.append(_merged_interior(x, y), 1.0)
    slack = _slack(x, y)
    return bool(np.all(_quantiles(x, points) <= _quantiles(y, points) + slack))


def ssd_dominates(x, y):
    """Tail averages of ``x`` never exceed those of ``y`` at any level.

    Compared through the survival-integral transform G(b) =
    (1 - b) * ES_b, which is continuous and piecewise linear with kinks
    only at atom breakpoints; agreement at the merged breakpoints and
    the endpoints is then exact on all of (0, 1).
    """

    levels = _merged_interior(x, y)
    tails_x, tails_y = _es_table(x, levels), _es_table(y, levels)
    slack = _slack(x, y)
    # G(0) is the mean; G(1) = 0 for both laws passes with any slack >= 0
    return mean(x) <= mean(y) + slack and all(
        (1.0 - b) * a <= (1.0 - b) * c + slack
        for b, a, c in zip(levels.tolist(), tails_x, tails_y)
    )


def var_envelope_eval(gens, x):
    """Minimum over quantile generators of sup-level quantile gaps.

    For one generator the charge is sup over levels of
    VaR_level(x) - g(level); both curves are steps on the merged grid,
    so the sup is a maximum over cell right endpoints.
    """

    def gap(y):
        points = np.append(_merged_interior(x, y), 1.0)
        return max((_quantiles(x, points) - _quantiles(y, points)).tolist())

    return _envelope_min(gens, "var", "quantile", gap)


def es_envelope_eval(gens, x):
    """Minimum over tail-average generators of sup-level ES gaps.

    The gap D(a) = ES_a(x) - ES_a(y) is differentiable inside each
    merged-grid cell with a derivative of constant sign (the numerator
    of D' is cellwise constant), so its supremum over (0, 1) is the
    maximum over the cell breakpoints and the two end limits: the mean
    gap at 0+ and the max-loss gap at 1-.
    """

    x_mean, x_worst = mean(x), worst_case(x)

    def gap(y):
        levels = _merged_interior(x, y)
        tails = map(operator.sub, _es_table(x, levels), _es_table(y, levels))
        return max(x_mean - mean(y), x_worst - worst_case(y), *tails)

    return _envelope_min(gens, "es", "tail-average", gap)


def _envelope_min(gens, kind, label, gap):
    """Least ``gap(generator law)`` over generator curves, all of ``kind``."""
    gens = list(gens)
    if not gens:
        raise DomainError("need at least one generator curve")
    if any(gen.kind != kind for gen in gens):
        raise DomainError("%s envelope needs '%s' generators" % (label, kind))
    return min(gap(gen.dist) for gen in gens)


def tail_event(x, alpha_prime):
    """States carrying the largest losses with total mass 1 - alpha_prime.

    Ties are broken toward lower state indices.  The mass must be hit
    exactly; otherwise the nearest realizable levels are reported, since
    a silently approximate tail event would corrupt the minimality
    construction built on it.
    """
    a = float(alpha_prime)
    if not 0.0 <= a <= 1.0:
        raise DomainError("tail level must lie in [0, 1]")
    target = 1.0 - a
    order = sorted(range(x.space.n), key=lambda i: (-x.values[i], i))
    probs = x.space.probs.tolist()
    sums = [0.0] + list(accumulate(probs[i] for i in order))
    for k, total in enumerate(sums):
        if abs(total - target) <= MASS_TOL:
            return tuple(sorted(order[:k]))
    below = max(s for s in sums if s < target - MASS_TOL)
    above = min([s for s in sums if s > target + MASS_TOL] + [1.0])
    raise PrecisionError(
        "tail mass %.12g is not realizable; nearest levels are "
        "alpha'=%.12g and alpha'=%.12g" % (target, 1.0 - below, 1.0 - above)
    )


def es_minimality_witness(x, alpha, alpha_prime):
    """Tail-averaged companion showing ES is the least SSD-consistent
    majorant of VaR.

    Requires VaR_alpha(x) <= 0 < ES_alpha'(x) with alpha' < alpha.  The
    witness replaces the alpha'-tail of x by its conditional mean; the
    returned record carries the two properties that drive the argument:
    the witness dominates x in second order yet its VaR at alpha is
    strictly positive.
    """
    if not 0.0 <= alpha_prime < alpha <= 1.0:
        raise DomainError("need 0 <= alpha' < alpha <= 1")
    d = distribution_of(x)
    var_x = var(d, alpha)
    if var_x > 0.0:
        raise DomainError(
            "precondition VaR_alpha(x) <= 0 fails: VaR_%g = %g" % (alpha, var_x)
        )
    es_x = es(d, alpha_prime)
    if es_x <= 0.0:
        raise DomainError(
            "precondition ES_alpha'(x) > 0 fails: ES_%g = %g" % (alpha_prime, es_x)
        )
    states = tail_event(x, alpha_prime)
    values = x.values.copy()
    values[list(states)] = es_x
    y = type(x)(x.space, values)
    dy = distribution_of(y)
    var_y = var(dy, alpha)
    return {
        "y": y,
        "tail_states": states,
        "checks": {
            "ssd_dominates": ssd_dominates(dy, d),
            "var_positive": var_y > 0.0,
            "var_alpha_y": var_y,
            "tail_mean": es_x,
        },
    }
