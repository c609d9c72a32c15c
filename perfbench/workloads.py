"""The benchmark's three workloads.

Each workload draws its raw inputs (plain numpy arrays and numbers) from the
seed, builds the library objects from them in ``build`` (the timed set-up),
computes independent reference values in ``references`` (untimed), and
returns one round of ops from ``ops``.  An op is one library call with a
check of its output; the benchmark repeats the round until the run's time is
up.  Ops of one kind are spread evenly through the round, so a run that
stops part-way through a round keeps the round's mix.
"""

import json
import os
from collections import namedtuple

import numpy as np

import reference as ref

Op = namedtuple("Op", "kind call check")

STAR_UTILITY = ((-1.0, -3.0), (0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.4))
LVAR_STEPS = ((0.0, 0.5), (1.0, 0.75))
BLEND_WEIGHT = 0.3


def spread(groups):
    """Interleave lists of ops so each list is spread evenly over the round.

    List g places its j-th op at (j + phase_g) / len(list).  The phases step
    by the golden ratio, so single-op lists land apart from each other and
    any prefix of the round keeps close to the round's mix.
    """
    keyed = []
    for g, ops in enumerate(groups):
        phase = ((g + 1) * 0.6180339887498949) % 1.0
        for j, op in enumerate(ops):
            keyed.append(((j + phase) / len(ops), g, op))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in keyed]


def weights(rng, n):
    w = rng.uniform(0.5, 1.5, size=n)
    return w / w.sum()


# ---------------------------------------------------------------------------
# bulk_eval
# ---------------------------------------------------------------------------

# (label, factory name, factory args, reference) for the single measures.
# Labels double as op kinds.
def _primitive_specs():
    return [
        ("var[0.95]", "var_measure", (0.95,), lambda v, p: ref.var(v, p, 0.95)),
        ("var[0.99]", "var_measure", (0.99,), lambda v, p: ref.var(v, p, 0.99)),
        ("es[0.9]", "es_measure", (0.9,), lambda v, p: ref.es(v, p, 0.9)),
        ("es[0.975]", "es_measure", (0.975,), lambda v, p: ref.es(v, p, 0.975)),
        ("mean", "mean_measure", (), ref.mean),
        ("entropic[1.5]", "entropic_measure", (1.5,), lambda v, p: ref.entropic(v, p, 1.5)),
        ("shortfall", "shortfall_measure", None, lambda v, p: ref.shortfall(v, p, STAR_UTILITY)),
        ("lvar", "lvar_measure", None, lambda v, p: ref.lvar(v, p, LVAR_STEPS)),
    ]


# Members of the 3-member family scored by Choquet (median) and the blend.
FAMILY = (("var_measure", 0.9), ("es_measure", 0.8), ("mean_measure", None))
# Positively homogeneous measures scored on the scale slice.
HOMOGENEOUS = ("var[0.95]", "var[0.99]", "es[0.9]", "es[0.975]", "mean", "choquet", "blend")
SCALES = (1e-12, 1e-3, 1e3, 1e12)


def _family_refs(v, p):
    return [ref.var(v, p, 0.9), ref.es(v, p, 0.8), ref.mean(v, p)]


class BulkEval:
    """Primitive and aggregate evaluations at 1,024 and 10,000 states, plus
    order and envelope tests at 256 states."""

    name = "bulk_eval"
    # (state count, shape); one profile in three is heavily tied.
    PROFILES = ((1024, "t"), (1024, "tied"), (10000, "t"), (10000, "normal"),
                (10000, "tied"), (10000, "t"))
    PAIR_N = 256
    PAIRS = 3

    def __init__(self, seed, root, work):
        rng = np.random.default_rng([seed, 1])
        self.profiles = []  # (n, weights, values)
        space_weights = {}
        for n, shape in self.PROFILES:
            if n not in space_weights:
                space_weights[n] = weights(rng, n)
            if shape == "tied":
                vals = np.round(rng.normal(0.0, 1.5, size=n) * 2.0) / 2.0
            elif shape == "normal":
                vals = rng.normal(0.0, 1.0, size=n)
            else:
                vals = rng.standard_t(5, size=n)
            self.profiles.append((n, space_weights[n], vals))
        n = self.PAIR_N
        self.pairs = []  # (weights, x, y, generator) with x <= y pointwise
        for _ in range(self.PAIRS):
            w = weights(rng, n)
            y = rng.normal(0.0, 1.0, size=n)
            x = y - np.abs(rng.normal(0.0, 0.5, size=n))
            g = rng.normal(0.0, 1.2, size=n)
            g = g - float(w @ g) - 0.25  # acceptable: mean below zero
            self.pairs.append((w, x, y, g))

    def build(self, lib):
        sr = lib.package
        spaces = {}
        built = {"profiles": [], "pairs": []}
        for n, w, vals in self.profiles:
            key = id(w)
            if key not in spaces:
                spaces[key] = sr.StateSpace(w)
            built["profiles"].append(sr.LossProfile(spaces[key], vals))
        measures = {}
        for label, factory, args, _ in _primitive_specs():
            if label == "shortfall":
                args = (sr.Utility(STAR_UTILITY),)
            elif label == "lvar":
                args = (sr.LossBenchmark(LVAR_STEPS),)
            measures[label] = getattr(sr, factory)(*args)
        built["measures"] = measures
        members = [getattr(sr, f)(*(() if a is None else (a,))) for f, a in FAMILY]
        built["families"] = {}
        for space in spaces.values():
            fam = sr.MeasureFamily(members, space)
            built["families"][space.n] = (
                sr.choquet_measure(fam, sr.order_statistic_capacity(3, 2)),
                sr.ecb_blend_measure(fam, BLEND_WEIGHT),
            )
        for w, x, y, g in self.pairs:
            space = sr.StateSpace(w)
            built["pairs"].append((
                sr.distribution_of(sr.LossProfile(space, x)),
                sr.distribution_of(sr.LossProfile(space, y)),
                sr.GeneratorCurve(sr.LossProfile(space, g), "es"),
            ))
        return built

    def references(self):
        refs = {"profiles": [], "pairs": []}
        for n, w, vals in self.profiles:
            row = {label: f(vals, w) for label, _, _, f in _primitive_specs()}
            members = _family_refs(vals, w)
            row["choquet"] = ref.choquet_median3(members)
            row["blend"] = ref.blend(members, BLEND_WEIGHT)
            refs["profiles"].append(row)
        for w, x, y, g in self.pairs:
            refs["pairs"].append({
                "fsd": ref.fsd(x, w, y, w),
                "ssd": ref.ssd(x, w, y, w),
                "es_envelope": ref.es_envelope(x, w, g, w),
            })
        return refs

    def ops(self, lib, built, refs):
        law = lib.law_invariant
        groups = {}

        def add(kind, call, check):
            groups.setdefault(kind, []).append(Op(kind, call, check))

        for (n, w, vals), x, want in zip(self.profiles, built["profiles"], refs["profiles"]):
            tol = ref.tol_for(vals)
            size = "n%d" % n
            evaluators = dict(built["measures"])
            evaluators["choquet"], evaluators["blend"] = built["families"][n]
            for label, rho in evaluators.items():
                add("%s.%s" % (label, size), (lambda rho=rho, x=x: rho(x)),
                    (lambda out, v=want[label], t=tol: ref.close(out, v, t)))
        rounds = []
        for (_, x, _, g), (dx, dy, gen), want in zip(self.pairs, built["pairs"], refs["pairs"]):
            tol = ref.tol_for(x, g)
            pair_ops = [
                Op("fsd_dominates", lambda dx=dx, dy=dy: law.fsd_dominates(dx, dy),
                   lambda out, v=want["fsd"]: out is v),
                Op("ssd_dominates", lambda dx=dx, dy=dy: law.ssd_dominates(dx, dy),
                   lambda out, v=want["ssd"]: out is v),
                Op("es_envelope_eval", lambda dx=dx, gen=gen: law.es_envelope_eval([gen], dx),
                   lambda out, v=want["es_envelope"], t=tol: ref.close(out, v, t)),
            ]
            # One pair per round; rounds rotate over the pairs.
            rounds.append(spread(list(groups.values()) + [[op] for op in pair_ops]))
        return [op for rnd in rounds for op in rnd]

    def scale_slice(self, lib, built, refs):
        """Scaled copies of the 1,024-state profiles, scored by positively
        homogeneous measures; the reference is the unscaled value times the
        scale.  Returns the number checked and the list of failures."""
        sr = lib.package
        checked, failures = 0, []
        evaluators = dict(built["measures"])
        for (n, _, vals), x, want in zip(self.profiles, built["profiles"], refs["profiles"]):
            if n != 1024:
                continue
            evaluators["choquet"], evaluators["blend"] = built["families"][n]
            for s in SCALES:
                xs = sr.LossProfile(x.space, vals * s)
                tol = ref.tol_for(vals * s)
                for label in HOMOGENEOUS:
                    checked += 1
                    got = evaluators[label](xs)
                    if not ref.close(got, want[label] * s, tol):
                        failures.append({
                            "measure": label, "n": n, "scale": s, "got": got,
                            "want": want[label] * s,
                            "rel_err": abs(got - want[label] * s) / abs(want[label] * s),
                        })
        return checked, failures


# ---------------------------------------------------------------------------
# risk_sharing
# ---------------------------------------------------------------------------

# Each round: (family, op, state count, targets, copies of each).  Cheap
# 2-state solves carry the median and 3-state ES solves the 90th percentile.
# Each target recurs in every round, so a run times it a dozen times or more.
SHARING_ROUND = (
    ("es_wc", "inf_convolution", 2, 2, 5),
    ("es_wc", "ccp_margin", 2, 1, 5),
    ("entropic", "inf_convolution", 2, 2, 5),
    ("entropic", "ccp_margin", 2, 1, 5),
    ("es_wc", "inf_convolution", 3, 3, 4),
    ("es_wc", "ccp_margin", 3, 1, 3),
)
# One slower solve per round, taking turns, sits above the 90th percentile.
SHARING_TOP = (
    ("es_wc", "inf_convolution", 4),
    ("entropic", "inf_convolution", 3),
    ("es_wc", "inf_convolution", 8),
)
ADMISSIBLE = ((0,), (1,), (0, 1))


class RiskSharing:
    """Inf-convolution and clearing-margin solves with the normality gate on.

    Families with closed-form optima: (ES_beta, worst case) shares at
    ES_beta; two entropic members share at entropic(lambda1 + lambda2).
    """

    name = "risk_sharing"

    def __init__(self, seed, root, work):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.cases = []  # distinct targets
        self.copies = []
        rows = list(SHARING_ROUND) + [row + (1, 0) for row in SHARING_TOP]
        for family, call, n, targets, copies in rows:
            for _ in range(targets):
                if family == "es_wc":
                    params = (float(rng.choice([0.5, 0.75, 0.9])),)
                else:
                    params = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=2))
                self.cases.append({
                    "family": family, "call": call, "n": n, "params": params,
                    "w": weights(rng, n), "x": rng.uniform(-3.0, 3.0, size=n),
                })
                self.copies.append(copies)

    def build(self, lib):
        sr = lib.package
        built = []
        for case in self.cases:
            space = sr.StateSpace(case["w"])
            if case["family"] == "es_wc":
                members = [sr.es_measure(case["params"][0]), sr.worst_case_measure()]
            else:
                members = [sr.entropic_measure(lam) for lam in case["params"]]
            built.append((sr.MeasureFamily(members, space), sr.LossProfile(space, case["x"])))
        return {"cases": built, "config": sr.SolverConfig(seed=self.seed)}

    def references(self):
        out = []
        for case in self.cases:
            w, x = case["w"], case["x"]
            if case["family"] == "es_wc":
                beta = case["params"][0]
                shared = ref.es(x, w, beta)
                singles = [shared, float(np.max(x))]
            else:
                shared = ref.entropic(x, w, sum(case["params"]))
                singles = [ref.entropic(x, w, lam) for lam in case["params"]]
            out.append(min([shared] + singles) if case["call"] == "ccp_margin" else shared)
        return out

    def ops(self, lib, built, refs):
        ag = lib.aggregate
        config = built["config"]
        ops = []
        for case, (fam, x), want in zip(self.cases, built["cases"], refs):
            tol = ref.tol_for(case["x"])
            kind = "%s.%s.n%d" % (case["call"], case["family"], case["n"])
            if case["call"] == "inf_convolution":
                call = lambda fam=fam, x=x: ag.inf_convolution(fam, x, config).total
            else:
                call = lambda fam=fam, x=x: ag.ccp_margin(fam, ADMISSIBLE, x, config)[1].total
            ops.append(Op(kind, call, lambda out, v=want, t=tol: ref.close(out, v, t)))
        groups = [[op] * copies for op, copies in zip(ops, self.copies) if copies]
        tops = ops[len(groups):]
        return [op for top in tops for op in spread(groups + [[top]])]


# ---------------------------------------------------------------------------
# audit_reports
# ---------------------------------------------------------------------------

# (name, argv with {data}/{work} placeholders, golden exit code, copies per
# round).  The 2-5 ms commands sit below the median, the 10,000-state eval
# carries it, and the 4-state split reports (infconv and margin, alike in
# cost) carry the 90th percentile; three slower ops per round sit above.
AUDIT_ROUND = (
    ("eval_basic", "eval --input {data}/book.csv --spec {data}/basic.json", 0, 2),
    ("eval_primitives", "eval --input {data}/weighted.csv --spec {data}/primitives.json", 0, 2),
    ("eval_weighted", "eval --input {data}/weighted.csv --spec {data}/basic.json", 0, 2),
    ("axioms_convex", "axioms --spec {data}/convex_check.json --seed 2", 1, 2),
    ("aggregate_tables", "aggregate --input {data}/book.csv --spec {data}/aggregate.json", 0, 2),
    ("optimize_direct", "optimize --input {data}/actions.csv --spec {data}/optimize_one.json", 0, 2),
    ("optimize_robust", "optimize --input {data}/actions.csv --spec {data}/basic.json", 0, 2),
    ("eval_10000", "eval --input {work}/scenarios_10000.csv --spec {data}/basic.json", 0, 14),
    ("axioms_star", "axioms --spec {data}/star_check.json --seed 7", 0, 3),
    ("envelope_basic", "envelope --spec {data}/basic.json --seed 3", 0, 4),
    ("margin_subsets", "margin --input {data}/book.csv --spec {data}/margin.json --seed 5", 0, 9),
    ("infconv_pair", "infconv --input {data}/book.csv --spec {data}/infconv_pair.json --seed 11", 0, 9),
    ("optimize_64x12", "optimize --input {work}/actions_64x12.csv --spec {data}/optimize_one.json", 0, 1),
    ("aggregate_infconv",
     "aggregate --input {data}/weighted.csv --spec {data}/infconv_kind.json --seed 11", 0, 1),
)
# Criterion 09's exhibits: inside the ES_0.5 dual set on two equiprobable
# states the penalty is 0, outside it blows up.  The grid is criterion 09's
# box at twice its base step, which keeps its bounds and halves the call.
PENALTY_INSIDE = ((0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0))
PENALTY_OUTSIDE = ((1.25, 0.0), (0.0, 1.25), (1.5, 0.5))


def write_csv(path, probs, columns):
    names = list(columns)
    lines = ["state,prob," + ",".join(names)]
    for i, p in enumerate(probs):
        lines.append("s%d,%r,%s" % (i, float(p), ",".join(repr(float(columns[c][i])) for c in names)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    names = rows[0][2:]
    probs = np.array([float(r[1]) for r in rows[1:]])
    cols = {name: np.array([float(r[2 + j]) for r in rows[1:]]) for j, name in enumerate(names)}
    return probs, cols


class AuditReports:
    """In-process CLI runs of all seven commands, plus one penalty table."""

    name = "audit_reports"

    def __init__(self, seed, root, work):
        rng = np.random.default_rng([seed, 3])
        self.data = os.path.join(root, "tests", "data")
        self.work = work
        self.seed = seed
        n = 10000
        self.big = (weights(rng, n), {"book": rng.standard_t(5, size=n),
                                      "hedge": rng.normal(0.0, 2.0, size=n)})
        n, k = 64, 12
        self.table = (np.full(n, 1.0 / n),
                      {"a%02d" % j: rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=n)
                       for j in range(k)})

    def _argv(self, template):
        return template.format(data=self.data, work=self.work).split()

    def build(self, lib):
        os.makedirs(self.work, exist_ok=True)
        write_csv(os.path.join(self.work, "scenarios_10000.csv"), *self.big)
        write_csv(os.path.join(self.work, "actions_64x12.csv"), *self.table)
        return {"space2": lib.package.StateSpace.uniform(2),
                "es": lib.package.es_measure(0.5)}

    def references(self):
        """Values the first report of each argv must contain.  Read back
        from the files so that the references see the CSV round trip."""
        refs = {}
        probs, cols = read_csv(os.path.join(self.work, "scenarios_10000.csv"))
        refs["eval_10000"] = {c: {"v": ref.var(v, probs, 0.5), "e": ref.es(v, probs, 0.5)}
                              for c, v in cols.items()}
        probs, cols = read_csv(os.path.join(self.work, "actions_64x12.csv"))
        values = {a: ref.es(v, probs, 0.5) for a, v in cols.items()}
        best = min(values, key=lambda a: (values[a], list(cols).index(a)))
        refs["optimize_64x12"] = {"argmin": best, "value": values[best]}
        # Split totals: ES_0.5 shared with the worst case stays ES_0.5.
        probs, cols = read_csv(os.path.join(self.data, "book.csv"))
        book = {c: ref.es(v, probs, 0.5) for c, v in cols.items()}
        refs["infconv_pair"] = refs["margin_subsets"] = book
        probs, cols = read_csv(os.path.join(self.data, "weighted.csv"))
        refs["aggregate_infconv"] = {c: ref.es(v, probs, 0.5) for c, v in cols.items()}
        return refs

    def _first_report_ok(self, name, report, want):
        if want is None:
            return True
        tol = 1e-9 * max(1.0, max(abs(v) for v in _numbers(want)))
        if name == "eval_10000":
            return all(ref.close(report["results"][c][m], want[c][m], tol)
                       for c in want for m in want[c])
        if name == "optimize_64x12":
            return report["argmin"] == want["argmin"] and ref.close(report["value"], want["value"], tol)
        if name == "aggregate_infconv":
            return all(ref.close(report["results"][c]["pool"], v, tol) for c, v in want.items())
        return all(ref.close(report["results"][c]["total"], v, tol) for c, v in want.items())

    def ops(self, lib, built, refs):
        cli = lib.cli
        groups = []
        for name, template, code, copies in AUDIT_ROUND:
            out = os.path.join(self.work, name + ".json")
            argv = self._argv(template) + ["--out", out]
            first = {}

            def check(got, name=name, out=out, code=code, first=first):
                if got != code:
                    return False
                with open(out, "rb") as fh:
                    raw = fh.read()
                if "raw" not in first:
                    first["raw"] = raw
                    report = json.loads(raw)
                    return (report.get("command") == name.split("_")[0]
                            and self._first_report_ok(name, report, refs.get(name)))
                return raw == first["raw"]

            op = Op("cli." + name, lambda argv=argv: cli.main(argv), check)
            groups.append([op] * copies)
        space, rho = built["space2"], built["es"]
        scenarios = PENALTY_INSIDE + PENALTY_OUTSIDE

        def penalty():
            return lib.envelope.penalty_of(rho, space, scenarios, box=4.0, step=0.5)

        def penalty_ok(table):
            inside = table.alpha[:len(PENALTY_INSIDE)]
            outside = table.alpha[len(PENALTY_INSIDE):]
            return bool(np.all(np.abs(inside) <= 1e-6) and np.all(outside > 1e3))

        groups.append([Op("penalty_of", penalty, penalty_ok)])
        return spread(groups)


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


WORKLOADS = {w.name: w for w in (BulkEval, RiskSharing, AuditReports)}
