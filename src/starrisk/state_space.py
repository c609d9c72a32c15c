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
from itertools import accumulate

import numpy as np

# Mass comparisons everywhere in this package use this absolute tolerance.
MASS_TOL = 1e-12
# Loss values closer than this times the largest magnitude among them are
# merged into a single atom.
VALUE_MERGE_TOL = 1e-12


class DimensionError(ValueError):
    """Operands live on different state spaces."""


class DomainError(ValueError):
    """A numeric argument is outside its documented domain."""


class StateSpace:
    """Finite sample space: ``n`` states with strictly positive weights.

    Parameters
    ----------
    probs:
        Per-state probabilities. Must be strictly positive and sum to 1
        within 1e-12.
    """

    __slots__ = ("probs", "n", "_plain", "_mass", "_order")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("probs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise DomainError("probs must be finite")
        if np.any(p <= 0.0):
            raise DomainError("all state probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise DomainError(
                "probabilities sum to %.17g, not 1 within %g" % (p.sum(), MASS_TOL)
            )
        p.setflags(write=False)
        self.probs = p
        self.n = int(p.size)
        self._plain = self._mass = self._order = None

    # Caches for building laws on this space, each made on first use, so a
    # space pays only for what its laws need.

    def _plain_probs(self):
        """The weights as a float list, the kernels' input, and the mass
        verdict of ``_mass_ok``."""
        if self._plain is None:
            self._plain = self.probs.tolist(), self._mass_ok()
        return self._plain

    def _mass_ok(self):
        """Whether the weights pass the ``math.fsum`` mass check of a law.
        ``math.fsum`` is exactly rounded, so every permutation of the
        weights gets this verdict: it stands for any law on this space
        whose atoms did not merge."""
        if self._mass is None:
            self._mass = abs(math.fsum(self.probs.tolist()) - 1.0) <= MASS_TOL
        return self._mass

    def _weight_order(self):
        """Stable argsort of the weights, which orders tied losses."""
        if self._order is None:
            self._order = np.argsort(self.probs, kind="stable")
            self._order.setflags(write=False)
        return self._order

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
    def __add__(self, other):
        if isinstance(other, LossProfile):
            _require_same_space(self, other)
            return LossProfile(self.space, self.values + other.values, _validate=False)
        return LossProfile(self.space, self.values + float(other), _validate=False)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, LossProfile):
            _require_same_space(self, other)
            return LossProfile(self.space, self.values - other.values, _validate=False)
        return LossProfile(self.space, self.values - float(other), _validate=False)

    def __mul__(self, scalar):
        return LossProfile(self.space, self.values * float(scalar), _validate=False)

    __rmul__ = __mul__

    def __neg__(self):
        return LossProfile(self.space, -self.values, _validate=False)

    def __repr__(self):
        return "LossProfile(%s)" % np.array2string(self.values, separator=", ")


def _require_same_space(x, y):
    if not x.space.same_as(y.space):
        raise DimensionError("profiles live on different state spaces")


class LossDistribution:
    """Sorted (value, probability) atoms of a loss; the law-invariant view.

    Values are strictly increasing (atoms closer than 1e-12 times the
    largest magnitude merge, probabilities aggregated); probabilities sum
    to 1 within 1e-12, and ``cum`` holds their running total.  Every law,
    whether from ``atoms`` or from ``distribution_of``, is built by the
    array merge ``_merge_arrays``.
    """

    __slots__ = ("values", "probs", "cum")

    def __init__(self, atoms):
        table = np.array([(float(v), float(p)) for v, p in atoms]).reshape(-1, 2)
        if not len(table):
            raise DomainError("distribution needs at least one atom")
        self._build(table[:, 0], table[:, 1])

    def _build(self, values, probs, space=None):
        """Set this law from nonempty float arrays ``values`` and ``probs``;
        ``space``, when ``probs`` are its weights, lends its cached weight
        order and mass verdict."""
        self.values, self.probs = _merge_arrays(values, probs, space)
        if space is None or self.probs.size < space.n or not space._mass_ok():
            _check_mass(self.probs.tolist())
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

    The pairs are sorted and merged by ``_merge_sorted``; ``cum`` is the
    running total of the probabilities.  The weights are positive by
    construction.  Unless atoms merged, the probabilities are a
    permutation of the weights, whose ``math.fsum`` is exactly rounded and
    so the same: the space's cached mass verdict stands for them, and the
    check only runs (to raise) when it failed.
    """
    weights, mass_ok = space._plain_probs()
    vals, probs = _merge_sorted(sorted(zip(values, weights)))
    if len(vals) < space.n or not mass_ok:
        _check_mass(probs)
    return vals, probs, list(accumulate(probs))


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


def _check_mass(probs):
    total = math.fsum(probs)
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError("atom probabilities sum to %.17g, not 1" % total)


def _merge_arrays(values, probs, space=None):
    """The merge of ``_merge_sorted`` on nonempty float arrays, vectorised;
    returns (values, probs) arrays.  ``space``, when ``probs`` are its
    weights, lends its cached weight order.

    Exactly equal values are ordered by probability, then by position, as
    tuples sort, so their sums add in the same order: a stable sort of the
    values taken in stable weight order, the permutation
    ``np.lexsort((probs, values))`` gives.  A group cut where consecutive
    values differ by more than the tolerance is also cut by the
    first-value rule; groups spanning more than the tolerance are then
    re-cut by that rule.  ``np.bincount`` adds each group's weights in
    sequence, like the pair loop.
    """
    order = np.argsort(values)
    v = values[order]
    gaps = np.diff(v)
    if not gaps.all():
        by_p = (np.argsort(probs, kind="stable") if space is None
                else space._weight_order())
        order = by_p[np.argsort(values[by_p], kind="stable")]
        v = values[order]
        gaps = np.diff(v)
    p = probs[order]
    if (p <= 0.0).any():
        raise DomainError("atom probabilities must be strictly positive")
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
    ``_merge_arrays`` on the space's cached weight order; unless atoms
    merged, the space's cached mass verdict stands for the law's."""
    law = LossDistribution.__new__(LossDistribution)
    return law._build(x.values, x.space.probs, x.space)


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
        if np.any(table < -MASS_TOL) or np.any(table > 1.0 + MASS_TOL):
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
