"""Size sweep: direct calls into single layers at fixed state counts.

Each function is timed at n = 4, 64, 1,024 and 10,000 states with
non-uniform weights (the split solver at 3, 8 and 16).  The reported sizes
are always measured and become per-layer metrics.  The probed sizes above
them are projected first, from the two largest sizes already measured: a
call projected above ``CAP_MS`` is not made and is recorded as an "exceeds
cap" finding with its projected time; a call under it is measured and goes
to the run record only, since whether it runs depends on the host's speed.
"""

import math
import statistics

import numpy as np

from workloads import STAR_UTILITY, weights

SIZES = (4, 64, 1024, 10000)
# (reported, probed) sizes of the O(n^2) and O(n^3) calls and of the solver.
QUADRATIC = ((4, 64, 1024), (10000,))
SPLIT = ((3, 8), (16,))
SPLIT_SIZES = SPLIT[0] + SPLIT[1]
CAP_MS = 5000.0


def _inputs(sr, rng, n):
    space = sr.StateSpace(weights(rng, n))
    y = rng.standard_t(5, size=n)
    x = y - np.abs(rng.normal(0.0, 0.5, size=n))
    g = rng.normal(0.0, 1.2, size=n)
    g = g - float(space.probs @ g) - 0.25
    return space, sr.LossProfile(space, x), sr.LossProfile(space, y), sr.LossProfile(space, g)


def _cases(lib, seed):
    """(metric name, (reported sizes, probed sizes), builder) where
    builder(n) returns a call."""
    sr = lib.package
    rng = np.random.default_rng([seed, 4])
    inputs = {n: _inputs(sr, rng, n) for n in SIZES + SPLIT_SIZES}
    family = (sr.var_measure(0.9), sr.es_measure(0.8), sr.mean_measure())
    median = sr.order_statistic_capacity(3, 2)
    es_half = sr.es_measure(0.5)
    config = sr.SolverConfig(seed=seed)
    primitives = {
        "var": sr.var_measure(0.99),
        "es": sr.es_measure(0.975),
        "mean": sr.mean_measure(),
        "entropic": sr.entropic_measure(1.5),
        "shortfall": sr.shortfall_measure(sr.Utility(STAR_UTILITY)),
    }

    def dist(n):
        x = inputs[n][1]
        return lambda: lib.state_space.distribution_of(x)

    def primitive(name):
        rho = primitives[name]
        return lambda n: (lambda x=inputs[n][1]: rho(x))

    def choquet(n):
        space, x = inputs[n][0], inputs[n][1]
        fam = sr.MeasureFamily(family, space)
        return lambda: lib.aggregate.choquet_aggregate(fam, median, x)

    def envelope(n):
        _, x, y, _ = inputs[n]
        member = sr.EnvelopeMember(y, es_half(y))
        return lambda: lib.envelope.envelope_evaluate(member, x)

    def ssd(n):
        _, x, y, _ = inputs[n]
        dx, dy = sr.distribution_of(x), sr.distribution_of(y)
        return lambda: lib.law_invariant.ssd_dominates(dx, dy)

    def es_envelope(n):
        _, x, _, g = inputs[n]
        dx, gens = sr.distribution_of(x), [sr.GeneratorCurve(g, "es")]
        return lambda: lib.law_invariant.es_envelope_eval(gens, dx)

    def split(n):
        space, x = inputs[n][0], inputs[n][1]
        fam = sr.MeasureFamily([es_half, sr.worst_case_measure()], space)
        return lambda: lib.aggregate.inf_convolution(fam, x, config)

    linear = (SIZES, ())
    cases = [("state_space.distribution_of", linear, dist)]
    cases += [("measures.%s" % name, linear, primitive(name)) for name in primitives]
    cases += [
        ("aggregate.choquet_aggregate", linear, choquet),
        ("envelope.envelope_evaluate", QUADRATIC, envelope),
        ("law_invariant.ssd_dominates", QUADRATIC, ssd),
        ("law_invariant.es_envelope_eval", QUADRATIC, es_envelope),
        ("aggregate.inf_convolution", SPLIT, split),
    ]
    return cases


def _time_ms(call, clock):
    """Median of 7 calls under 10 ms, of 3 under 300 ms, else one call."""
    times = []
    while True:
        t0 = clock()
        call()
        times.append(1e3 * (clock() - t0))
        first = times[0]
        want = 7 if first < 10.0 else 3 if first < 300.0 else 1
        if len(times) >= want:
            return statistics.median(times)


def _projected_ms(measured, n):
    if len(measured) < 2:
        return 0.0
    (n1, t1), (n2, t2) = measured[-2:]
    k = math.log(t2 / t1) / math.log(n2 / n1)
    return t2 * (n / n2) ** max(k, 1.0)


def run(lib, seed, clock):
    """Returns ({reported metric: ms}, {probed metric: ms}, [finding, ...])."""
    metrics, probes, findings = {}, {}, []
    for base, (reported, probed), builder in _cases(lib, seed):
        measured = []
        for n in reported + probed:
            name = "%s.ms.n%d" % (base, n)
            if n in probed:
                projected = _projected_ms(measured, n)
                if projected > CAP_MS:
                    findings.append({"metric": name, "finding": "exceeds cap",
                                     "cap_ms": CAP_MS, "projected_ms": round(projected, 1)})
                    continue
            ms = _time_ms(builder(n), clock)
            measured.append((n, ms))
            (probes if n in probed else metrics)[name] = ms
    return metrics, probes, findings
