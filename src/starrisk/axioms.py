"""Executable verification of risk-measure properties on sampled probes.

The axioms of interest quantify over an infinite space of losses, so this
module checks them on seeded probe sets: a verdict of ``holds_on_sample``
is evidence, while ``violated`` is conclusive and ships a replayable
witness.  Star-shapedness is tested in both equivalent forms (dilation
lower bound for factors above 1, contraction upper bound below 1), and the
risk-to-exposure curve gives the third, ratio-based view.

Also here: acceptance-set membership, recovery of a measure from its
acceptance set by cash translation, the star-shaped acceptance-set law
(deleveraging an acceptable position keeps it acceptable), and the
collapse check that subadditivity plus star-shapedness force positive
homogeneity.
"""

from dataclasses import dataclass

import numpy as np

from .state_space import DomainError, LossProfile, StateSpace, _bisect

#: Dilation factors spanning both the contraction and dilation regimes.
DILATION_GRID = (0.125, 0.25, 0.5, 0.75, 1.0, 4.0 / 3.0, 2.0, 4.0, 8.0)

#: Cash shifts used for translation-invariance probes.
SHIFT_GRID = (-2.5, -1.0, 0.5, 3.0)

#: Mixing weights used for convexity probes.
WEIGHT_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

# default probe values are drawn from [-_PROBE_BOUND, _PROBE_BOUND]
_PROBE_BOUND = 5.0
# measure_from_acceptance: bisection width, and how often a bracket end may
# double its step before the search gives up
_ACCEPT_TOL = 1e-9
_MAX_EXPAND = 60


class SearchError(ValueError):
    """A bracketing search could not be made decisive."""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one property check.

    ``witness`` is None unless the verdict is ``violated``; then it holds
    plain lists/floats sufficient to replay the violating evaluation.
    ``rows`` is None unless the check records one row per probe.
    """

    property_name: str
    verdict: str  # holds_on_sample | violated | not_applicable
    tolerance: float
    probes_used: int
    witness: dict | None = None
    rows: list | None = None

    def to_dict(self):
        out = {
            "property": self.property_name,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "probes_used": self.probes_used,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.rows is not None:
            out["rows"] = self.rows
        return out


@dataclass(frozen=True)
class ProbeSet:
    """Seeded sampling domain for universally quantified axioms."""

    profiles: tuple
    scalars: tuple
    seed: int

    def __post_init__(self):
        s = np.asarray(self.scalars, dtype=float)
        if np.any(s <= 0.0):
            raise DomainError("dilation grid must be strictly positive")
        if not (np.any(s < 1.0) and np.any(s > 1.0) and np.any(s == 1.0)):
            raise DomainError("dilation grid must contain values below, at, and above 1")


def default_probe_set(seed, count=200, sizes=(2, 3, 4), equiprobable=False):
    """Seeded profiles over the given state counts with values in [-5, 5].

    Non-equiprobable weights are a mixture of a flat vector and a Dirichlet
    draw, keeping every state mass at least 0.1 / n.  Consecutive profiles
    share a space in pairs so that two-argument checks (subadditivity,
    convexity) always have material to work with.
    """
    rng = np.random.default_rng(seed)
    profiles = []
    while len(profiles) < count:
        n = int(rng.choice(sizes))
        if equiprobable:
            space = StateSpace.uniform(n)
        else:
            w = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
            space = StateSpace(w / w.sum())
        for _ in range(min(2, count - len(profiles))):
            profiles.append(
                LossProfile(space, rng.uniform(-_PROBE_BOUND, _PROBE_BOUND, size=n))
            )
    return ProbeSet(tuple(profiles), DILATION_GRID, int(seed))


def _usable(rho, probes):
    need = getattr(rho, "required_n", None)
    out = [x for x in probes.profiles if need is None or x.space.n == need]
    if not out:
        raise DomainError("no probe matches the evaluator's required state count")
    return out


def _pairs(profiles):
    by_n = {}
    for x in profiles:
        by_n.setdefault(x.space.n, []).append(x)
    for group in by_n.values():
        for a, b in zip(group, group[1:]):
            if a.space.same_as(b.space):
                yield a, b


def _witness(x, **extra):
    out = {"x": x.values.tolist(), "probs": x.space.probs.tolist()}
    for k, v in extra.items():
        out[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


def _first_violation(name, cases, tol):
    """Report on ``cases``: one witness dict per failed check, None per
    passed one.  The first failure stops the scan."""
    used = 0
    for witness in cases:
        used += 1
        if witness is not None:
            return AxiomReport(name, "violated", tol, used, witness)
    return AxiomReport(name, "holds_on_sample", tol, used)


def _normalized_cases(rho, xs, scalars, tol):
    for n in sorted({x.space.n for x in xs}):
        v = rho(LossProfile(StateSpace.uniform(n), np.zeros(n)))
        yield {"n": n, "rho_zero": v} if abs(v) > tol else None


def _monotone_cases(rho, xs, scalars, tol):
    for a, b in _pairs(xs):
        bigger = a + LossProfile(a.space, np.abs(b.values), _validate=False)
        va, vb = rho(a), rho(bigger)
        bad = va > vb + tol
        yield _witness(a, rho_x=va, y=bigger.values, rho_y=vb) if bad else None


def _translation_cases(rho, xs, scalars, tol):
    for x in xs:
        vx = rho(x)
        for m in SHIFT_GRID:
            shifted = rho(x - m)
            bad = abs(shifted - (vx - m)) > tol
            yield _witness(x, rho_x=vx, shift=m, rho_shifted=shifted) if bad else None


def _scaling_cases(bad):
    """Cases comparing rho(lam * x) with lam * rho(x), judged by ``bad``."""

    def cases(rho, xs, scalars, tol):
        for x in xs:
            vx = rho(x)
            for lam in scalars:
                scaled = rho(lam * x)
                hit = bad(lam, vx, scaled, tol)
                yield _witness(x, rho_x=vx, scale=lam, rho_scaled=scaled) if hit else None

    return cases


def _subadditive_cases(rho, xs, scalars, tol):
    for a, b in _pairs(xs):
        va, vb, vs = rho(a), rho(b), rho(a + b)
        bad = vs > va + vb + tol
        yield _witness(a, rho_x=va, y=b.values, rho_y=vb, rho_sum=vs) if bad else None


def _convex_cases(rho, xs, scalars, tol):
    for a, b in _pairs(xs):
        va, vb = rho(a), rho(b)
        for w in WEIGHT_GRID:
            mixed = rho(w * a + (1.0 - w) * b)
            bad = mixed > w * va + (1.0 - w) * vb + tol
            yield (_witness(a, rho_x=va, y=b.values, rho_y=vb, weight=w,
                            rho_mix=mixed) if bad else None)


def _deleverage_cases(rho, xs, scalars, tol):
    for x in xs:
        if rho(x) > 0.0:
            continue
        for a in scalars:
            if a < 1.0:
                v = rho(a * x)
                yield _witness(x, scale=a, rho_scaled=v) if v > tol else None


#: Property -> case generator over (rho, usable probes, dilation grid, tol).
_CASES = {
    "monotone": _monotone_cases,
    "translation_invariant": _translation_cases,
    "normalized": _normalized_cases,
    "positively_homogeneous": _scaling_cases(
        lambda lam, vx, scaled, tol: abs(scaled - lam * vx) > tol
    ),
    "subadditive": _subadditive_cases,
    "convex": _convex_cases,
    # Above 1 the dilation bound, below 1 the contraction bound.
    "star_shaped": _scaling_cases(
        lambda lam, vx, scaled, tol: (lam > 1.0 and scaled < lam * vx - tol)
        or (lam < 1.0 and scaled > lam * vx + tol)
    ),
}

SUPPORTED_PROPERTIES = tuple(_CASES)


def check_axiom(rho, which, probes, tol=1e-9):
    """Test the defining inequality of ``which`` on all applicable probes.

    Returns an :class:`AxiomReport`; the first violation beyond ``tol``
    stops the scan and is recorded as the witness.
    """
    if which not in _CASES:
        raise DomainError(
            "unsupported property %r; expected one of %s" % (which, SUPPORTED_PROPERTIES)
        )
    cases = _CASES[which](rho, _usable(rho, probes), probes.scalars, tol)
    return _first_violation(which, cases, tol)


def risk_to_exposure(rho, x, grid):
    """Sampled curve beta -> rho(beta * x) / beta over a positive grid.

    For a star-shaped measure the curve is nondecreasing; the caller
    asserts monotonicity.
    """
    grid = [float(b) for b in grid]
    if any(b <= 0.0 for b in grid):
        raise DomainError("exposure grid must be strictly positive")
    return [(b, rho(b * x) / b) for b in sorted(grid)]


def acceptance_set_contains(rho, x):
    """True iff the position needs no additional capital: rho(x) <= 0."""
    return rho(x) <= 0.0


def measure_from_acceptance(accept, x):
    """Least cash m with x - m acceptable, by bracketed bisection.

    ``accept`` must be monotone in m (membership of x - m nondecreasing as
    m grows); the bracket starts at [min(x) - d, max(x)], with d = 1 or
    twice the spacing of doubles at min(x) if that is larger, and expands
    geometrically, at most 60 doublings per end, until decisive, else a
    :class:`SearchError` is raised.  Bisection stops at width 1e-9 times
    the largest magnitude of x when that is below 1, else at 1e-9.
    """
    low = float(np.min(x.values))
    # from |min(x)| = 2**53 on, min(x) - 1 rounds back to min(x)
    lo = low - max(1.0, 2.0 * float(np.spacing(abs(low))))
    hi = float(np.max(x.values))
    hi = _expand(accept, x, hi, hi - lo, True,
                 "no acceptable cash translation found (upper bracket)")
    lo = _expand(accept, x, lo, lo - hi, False,
                 "every cash translation acceptable (lower bracket)")
    scale = float(np.max(np.abs(x.values)))
    width = _ACCEPT_TOL * min(1.0, scale) if scale > 0.0 else _ACCEPT_TOL
    return _bisect(lambda m: accept(x - m), lo, hi, width)


def _expand(accept, x, edge, step, accepted, message):
    """Move ``edge`` by ``step``, doubling it each time, until membership
    of x - edge equals ``accepted``."""
    for _ in range(_MAX_EXPAND + 1):
        if bool(accept(x - edge)) == accepted:
            return edge
        edge += step
        step *= 2.0
    raise SearchError(message)


def star_acceptance_check(rho, probes, tol=1e-9):
    """Deleveraging law: alpha * X stays acceptable for acceptable X.

    For each probe with rho(X) <= 0 and each contraction factor in the
    grid, asserts rho(alpha * X) <= tol.
    """
    cases = _deleverage_cases(rho, _usable(rho, probes), probes.scalars, tol)
    return _first_violation("star_acceptance", cases, tol)


def coherent_collapse_check(rho, probes, tol=1e-9):
    """Subadditive + star-shaped measures must be positively homogeneous.

    When either precondition fails on the probes the check is vacuous and
    reported as ``not_applicable`` (the witness names the failing
    precondition).
    """
    sub = check_axiom(rho, "subadditive", probes, tol)
    star = check_axiom(rho, "star_shaped", probes, tol)
    if sub.verdict == "violated" or star.verdict == "violated":
        failed = "subadditive" if sub.verdict == "violated" else "star_shaped"
        return AxiomReport(
            "coherent_collapse", "not_applicable",
            tol, sub.probes_used + star.probes_used,
            {"failed_precondition": failed},
        )
    ph = check_axiom(rho, "positively_homogeneous", probes, tol)
    return AxiomReport(
        "coherent_collapse", ph.verdict, tol,
        sub.probes_used + star.probes_used + ph.probes_used, ph.witness,
    )
