"""Finite probability spaces, loss profiles, and law-invariant distributions.

Everything downstream (measures, aggregation, envelopes, stochastic orders)
works on a finite state space with strictly positive probability weights.
A loss profile is a random variable given per state, with the sign convention
that positive values are losses and negative values are gains.  The
law-invariant view of a profile is a ``LossDistribution``: sorted atoms of
(value, probability) with equal values merged, which carries the quantile
machinery shared by every other module.

All objects are immutable after construction and every operation is a pure
function, so concurrent evaluation needs no coordination.
"""

import math
from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter, sub

import numpy as np

# Mass comparisons everywhere in this package use this absolute tolerance.
MASS_TOL = 1e-12
# Loss values closer than this times the largest magnitude among them are
# merged into a single atom.
VALUE_MERGE_TOL = 1e-12
# Sort key of (value, prob) pairs, made once: a key built per call added
# about 0.15 us to a 4-state law's 2 us.
_BY_VALUE = itemgetter(0)


class DimensionError(ValueError):
    """Operands live on different state spaces."""


class DomainError(ValueError):
    """A numeric argument is outside its documented domain."""


class StateSpace:
    """Finite sample space: ``n`` states with strictly positive weights.

    Parameters
    ----------
    probs:
        Per-state probabilities. Must be finite, strictly positive and sum
        to 1 within 1e-12 by ``math.fsum``, the mass rule of every law,
        checked here where the weights enter.  A law on this space takes
        them as checked: when tied losses merge, its probabilities carry
        only the merge's rounding.
    """

    __slots__ = ("probs", "n", "_plain")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("probs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise DomainError("probs must be finite")
        if np.any(p <= 0.0):
            raise DomainError("all state probabilities must be strictly positive")
        _check_mass(p.tolist())
        p.setflags(write=False)
        self.probs = p
        self.n = int(p.size)
        self._plain = None

    def _plain_probs(self):
        """The weights as a float list, the kernels' input; made on first
        use."""
        if self._plain is None:
            self._plain = self.probs.tolist()
        return self._plain

    @classmethod
    def uniform(cls, n):
        """Equiprobable space on ``n`` states."""
        if n < 1:
            raise DomainError("need at least one state")
        return cls(np.full(n, 1.0 / n))

    def same_as(self, other):
        """True when both spaces have identical weights (shared domain)."""
        return self is other or (
            self.n == other.n and bool(np.array_equal(self.probs, other.probs))
        )

    def __repr__(self):
        return "StateSpace(%s)" % np.array2string(self.probs, separator=", ")


class LossProfile:
    """A random loss: one finite real value per state of a ``StateSpace``."""

    __slots__ = ("space", "values")

    def __init__(self, space, values, _validate=True):
        v = np.asarray(values, dtype=float)
        if _validate:
            if not isinstance(space, StateSpace):
                raise TypeError("space must be a StateSpace")
            if v.ndim != 1 or v.size != space.n:
                raise DimensionError(
                    "profile has %d values for a %d-state space" % (v.size, space.n)
                )
            if not np.all(np.isfinite(v)):
                raise DomainError("loss values must be finite")
        if v.flags.writeable:
            v = v.copy()
            v.setflags(write=False)
        self.space = space
        self.values = v

    # Linear-space structure: profiles add, scale, and shift by cash amounts.
    # Each refuses a non-finite result, as the constructor does.
    def __add__(self, other):
        if isinstance(other, LossProfile):
            _require_same_space(self, other)
            return self._finite(np.add, other.values)
        return self._shift(np.add, float(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, LossProfile):
            _require_same_space(self, other)
            return self._finite(np.subtract, other.values)
        return self._shift(np.subtract, float(other))

    def __mul__(self, scalar):
        c = float(scalar)
        # |c| <= 1 cannot overflow finite values; else the largest product
        # in size is the largest entry's, rounded alike
        if not abs(c) <= 1.0 and not math.isfinite(
                abs(c) * float(np.abs(self.values).max())):
            raise DomainError("loss values must be finite")
        return self._result(self.values * c)

    __rmul__ = __mul__

    def __neg__(self):
        return self._result(-self.values)

    def _shift(self, op, c):
        # a shift below 2**970 in size cannot overflow finite values: the
        # exact result stays below 2**1024 - 2**970, which rounds down
        if abs(c) < 2.0**970:
            return self._result(op(self.values, c))
        return self._finite(op, c)

    def _finite(self, op, operand):
        """Profile of ``op(values, operand)``, refused when not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = op(self.values, operand)
        if not np.isfinite(v).all():
            raise DomainError("loss values must be finite")
        return self._result(v)

    def _result(self, v):
        # an array the arithmetic just made, so nothing else holds it: made
        # read-only here, the constructor keeps it instead of copying it
        v.setflags(write=False)
        return LossProfile(self.space, v, _validate=False)

    def __repr__(self):
        return "LossProfile(%s)" % np.array2string(self.values, separator=", ")


def _require_same_space(x, y):
    if not x.space.same_as(y.space):
        raise DimensionError("profiles live on different state spaces")


class LossDistribution:
    """Sorted (value, probability) atoms of a loss; the law-invariant view.

    Values are strictly increasing: atoms closer than 1e-12 times the
    largest magnitude merge, their probabilities added in state order, the
    order of ``atoms`` or of a profile's states; ``cum`` holds their
    running total.  ``atoms`` need finite values and finite, positive
    probabilities of ``fsum`` mass 1 within 1e-12, checked here where they
    enter, as a ``StateSpace`` checks its weights; every law is built by
    ``_build`` on checked input, and a merged law's probabilities carry
    only the merge's rounding.
    """

    __slots__ = ("values", "probs", "cum")

    def __init__(self, atoms):
        table = np.array([(float(v), float(p)) for v, p in atoms]).reshape(-1, 2)
        if not len(table):
            raise DomainError("distribution needs at least one atom")
        if not np.isfinite(table).all():
            raise DomainError("atom values and probabilities must be finite")
        probs = table[:, 1]
        if (probs <= 0.0).any():
            raise DomainError("atom probabilities must be strictly positive")
        _check_mass(probs.tolist())
        self._build(table[:, 0], probs)

    def _build(self, values, probs):
        """Set this law from nonempty float arrays ``values`` and ``probs``,
        already checked where they entered: finite, with positive
        probabilities of ``fsum`` mass 1.  Merged atoms' probabilities
        carry only the merge's rounding."""
        self.values, self.probs = _merge_arrays(values, probs)
        # np.cumsum adds in sequence, like itertools.accumulate
        self.cum = np.cumsum(self.probs)
        for a in (self.values, self.probs, self.cum):
            a.setflags(write=False)
        return self

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return "LossDistribution(%s)" % list(zip(self.values, self.probs))


def _space_atoms(values, space):
    """Law of a float list of losses on ``space``'s weights as plain lists
    (values, probs, cum), the input of the law-invariant evaluators'
    kernels; equal bit for bit to ``distribution_of``'s arrays.

    The pairs are sorted by value, a stable sort that keeps tied values in
    state order, and merged by ``_merge_sorted``; ``cum`` is the running
    total of the probabilities.  The space checked its weights where they
    entered; merged atoms' probabilities carry only the merge's rounding.
    """
    weights = space._plain_probs()
    vals, probs = _merge_sorted(sorted(zip(values, weights), key=_BY_VALUE))
    return vals, probs, list(accumulate(probs))


def _line_atoms(values, j, space, form, law):
    """``law(*_space_atoms(row, space))`` of the float list ``values``
    with entry ``j`` set to t, as a function of t: the law along one
    coordinate line, scored through the line form ``form``.

    The n - 1 fixed entries are sorted once, stably, as ``_space_atoms``
    sorts them, and exact ties among them merge at any tolerance, their
    weights, checked where they entered, added in state order with only the
    merge's rounding.  t goes in by one ``bisect_left``.  The first point at
    an insertion place ``at`` makes that place's probabilities and running
    totals and runs ``form(vals, probs, cum, at)`` once, ``vals`` the sorted
    fixed values; the step it returns scores every later point there.  Those
    lists are ``_space_atoms``' bit for bit, with t at index ``at``,
    whenever no other atoms merge, that is whenever every gap between
    neighbouring distinct values exceeds the tolerance.  A gap of two fixed
    values that t falls between bounds t's gaps to both, rounding being
    monotone, so testing the smallest fixed gap and t's two neighbours
    decides it.  The tolerance is taken, as there, from the largest
    magnitude with t included; where other atoms could merge the row goes to
    ``_space_atoms`` and ``law`` unchanged.
    """
    row = list(values)
    weights = space._plain_probs()
    fixed = list(zip(row, weights))
    del fixed[j]
    fixed.sort(key=_BY_VALUE)
    vals, probs = [], []
    for v, p in fixed:
        if vals and v == vals[-1]:
            probs[-1] += p
        else:
            vals.append(v)
            probs.append(p)
    gap = min(map(sub, vals[1:], vals[:-1]), default=math.inf)
    last, weight = len(vals), weights[j]
    steps = [None] * (last + 1)

    def score(t):
        at = bisect_left(vals, t)
        low = t if at == 0 else vals[0]
        high = t if at == last else vals[-1]
        merge_tol = VALUE_MERGE_TOL * max(-low, high)
        if (gap > merge_tol and (at == 0 or t - vals[at - 1] > merge_tol)
                and (at == last or vals[at] - t > merge_tol)):
            step = steps[at]
            if step is None:
                ps = probs[:at] + [weight] + probs[at:]
                step = steps[at] = form(vals, ps, list(accumulate(ps)), at)
            return step(t)
        row[j] = t
        return law(*_space_atoms(row, space))

    return score


def _merge_sorted(pairs):
    """Merge nonempty sorted (value, prob) pairs into (values, probs)
    lists: a value within the merge tolerance of the first value kept in
    its group adds its probability to that group, in order."""
    # sorted, so the largest magnitude is -min or max
    merge_tol = VALUE_MERGE_TOL * max(-pairs[0][0], pairs[-1][0])
    vals, probs = [], []
    for v, p in pairs:
        if vals and v - vals[-1] <= merge_tol:
            probs[-1] += p
        else:
            vals.append(v)
            probs.append(p)
    return vals, probs


# The mass rule of every law, applied only where weights enter: a
# ``StateSpace``'s weights and ``LossDistribution``'s atoms.
def _check_mass(probs):
    total = math.fsum(probs)
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError("probabilities sum to %.17g, not 1 within %g"
                          % (total, MASS_TOL))


def _merge_arrays(values, probs):
    """The merge of ``_merge_sorted`` on nonempty float arrays, vectorised;
    returns (values, probs) arrays.  The probabilities are taken as
    checked: both builders feed it input checked where it entered.

    Exactly equal values stay in state order, as the stable sort of
    ``_space_atoms`` leaves them, so their sums add in the same order; the
    values are sorted stably only once a tie shows.  A gap that overflows
    is +inf and cuts, as in the pair loop.  A group cut where consecutive
    values differ by more than the tolerance is also cut by the
    first-value rule; groups spanning more than the tolerance are then
    re-cut by that rule.  ``np.bincount`` adds each group's weights in
    sequence, like the pair loop.
    """
    order = np.argsort(values)
    v = values[order]
    with np.errstate(over="ignore"):
        gaps = v[1:] - v[:-1]
    if not gaps.all():
        # the sorted values, and so their gaps, do not depend on tie order
        order = np.argsort(values, kind="stable")
        v = values[order]
    p = probs[order]
    merge_tol = VALUE_MERGE_TOL * max(-float(v[0]), float(v[-1]))
    cut = gaps > merge_tol
    if cut.all():
        return v, p
    starts = np.concatenate(([True], cut))
    first = np.flatnonzero(starts)
    last = np.append(first[1:], v.size) - 1
    for g in np.flatnonzero(v[last] - v[first] > merge_tol).tolist():
        lo, hi = int(first[g]), int(last[g])
        kept = v[lo]
        for i in range(lo + 1, hi + 1):
            if v[i] - kept > merge_tol:
                starts[i] = True
                kept = v[i]
    group = np.cumsum(starts) - 1
    return v[starts], np.bincount(group, weights=p)


def pointwise_leq(x, y):
    """True iff ``x.values <= y.values`` in every state (shared space)."""
    _require_same_space(x, y)
    return bool(np.all(x.values <= y.values))


def distribution_of(x):
    """Law of a ``LossProfile`` under its space's weights, built by
    ``_build``: tied losses merge in state order.  The space checked its
    weights where they entered; merged probabilities carry only rounding."""
    law = LossDistribution.__new__(LossDistribution)
    return law._build(x.values, x.space.probs)


def _bisect(pred, lo, hi, tol):
    """Halve [lo, hi], ``pred`` false at lo and true at hi, to width ``tol``
    or until the midpoint is no longer strictly inside (adjacent doubles
    spaced wider than ``tol``); returns the last midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def quantile_breakpoints(d):
    """Cumulative-probability jump levels strictly inside (0, 1).

    These are exactly the levels where the quantile function of ``d``
    changes value, i.e. the strict partial sums of atom probabilities.
    """
    return [float(c) for c in d.cum[:-1] if MASS_TOL < c < 1.0 - MASS_TOL]


class Capacity:
    """Monotone normalized set function on the index set {1..k}, k <= 16.

    Subsets are addressed by bitmask: bit ``i-1`` set means index ``i`` is a
    member.  ``values`` must assign every mask in ``range(2**k)`` a number in
    [0, 1], with value 0 on the empty set, 1 on the full set, and
    ``value(J) <= value(K)`` whenever ``J`` is a subset of ``K``.
    """

    __slots__ = ("index_count", "_table")

    def __init__(self, index_count, values):
        k = _check_index_count(index_count)
        size = 1 << k
        table = np.zeros(size)
        if len(values) != size:
            raise DomainError(
                "capacity needs a value for each of %d subsets, got %d"
                % (size, len(values))
            )
        if isinstance(values, dict):
            for mask, v in values.items():
                table[int(mask)] = float(v)
        else:
            table[:] = np.asarray(values, dtype=float)
        if abs(table[0]) > MASS_TOL:
            raise DomainError("capacity of the empty set must be 0")
        if abs(table[size - 1] - 1.0) > MASS_TOL:
            raise DomainError("capacity of the full set must be 1")
        # written so that a NaN value fails it too
        if not np.all((table >= -MASS_TOL) & (table <= 1.0 + MASS_TOL)):
            raise DomainError("capacity values must lie in [0, 1]")
        # Monotonicity: adding one element never decreases the value.
        for mask in range(size):
            for bit in range(k):
                if not mask & (1 << bit):
                    if table[mask] > table[mask | (1 << bit)] + MASS_TOL:
                        raise DomainError(
                            "capacity not monotone at mask %d + bit %d" % (mask, bit)
                        )
        table.setflags(write=False)
        self.index_count = k
        self._table = table

    def of(self, mask):
        """Capacity of the subset encoded by ``mask``."""
        return float(self._table[mask])


def _check_index_count(k):
    """``k`` as an int, refused unless a ``Capacity`` can index that many
    members; table builders call it before building the 2**k entries."""
    k = int(k)
    if not 1 <= k <= 16:
        raise DomainError("capacity index count must be in 1..16")
    return k
