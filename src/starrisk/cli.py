"""Command-line front end: scenario CSVs and measure specs to JSON reports.

Scenario data arrives as CSV with header ``state,prob,<col>,...``; measure
specs as JSON ``{"measures": [{"name": ..., "kind": ..., ...}]}``.  Every
command emits one JSON document, compact unless ``--pretty``, with floats
rounded to 15 significant digits and infinities as the strings "inf" and
"-inf" so reports stay strict JSON and diffable.  Exit status: 0 on
success or all properties holding, 1 when a violation was found, 2 on any
input or precondition problem.
"""

import argparse
import csv
import json
import math
import sys
from functools import cache

import numpy as np

from . import __version__
from .state_space import Capacity, DomainError, LossProfile, StateSpace, \
    _is_integer
from .measures import (
    LossBenchmark,
    Utility,
    _charges,
    entropic_measure,
    es_measure,
    lvar_measure,
    max_var_measure,
    mean_measure,
    med_var_measure,
    shortfall_measure,
    var_measure,
    worst_case_measure,
)
from .axioms import check_axiom, default_probe_set
from .aggregate import (
    MeasureFamily,
    SolverConfig,
    additive_capacity,
    ccp_margin,
    ccp_margin_measure,
    choquet_measure,
    ecb_blend_measure,
    infconv_measure,
    normality_check,
    order_statistic_capacity,
    sup_capacity,
    _search_split,
)
from .envelope import envelope_family, envelope_member_measure, \
    min_representation_check
from .optimize import ActionLossTable, _decomposition

__all__ = ["main", "CliInputError"]

_AXIOM_PROBES = 60
_ENVELOPE_PROBES = 12


class CliInputError(Exception):
    """Bad file, field, or parameter; maps to exit status 2."""


# -- serialization -----------------------------------------------------------


def _clean(obj):
    """Round floats to 15 significant digits; stringify infinities."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return float("%.15g" % v)
    return obj


def _emit(args, **fields):
    """Write the report of ``args.command``: its metadata plus ``fields``."""
    metadata = {"version": __version__, "seed": args.seed, "tolerance": args.tol}
    body = _clean({"command": args.command, "metadata": metadata, **fields})
    if args.pretty:
        text = json.dumps(body, sort_keys=True, indent=2)
    else:
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise CliInputError(
                "cannot write %r: %s" % (args.out, err.strerror or err)
            )
    else:
        sys.stdout.write(text)


# -- input parsing -----------------------------------------------------------


def _parse_float(cell, row, column):
    try:
        return float(cell)
    except ValueError:
        raise CliInputError(
            "row %d, column %r: could not parse %r as a number"
            % (row, column, cell)
        ) from None


def load_scenarios(path):
    """CSV to (StateSpace, ordered {name: LossProfile})."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            first = next(rows, None)
            if first is None:
                raise CliInputError("%s is empty" % path)
            header = [h.strip() for h in first]
            if header[:2] != ["state", "prob"]:
                raise CliInputError(
                    "header must start with 'state,prob', got %r" % ",".join(header)
                )
            names = header[2:]
            if not names:
                raise CliInputError("need at least one loss column after 'prob'")
            if len(names) != len(set(names)):
                raise CliInputError("duplicate loss column names")
            body = []
            for r, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    _check_cells(body, names)  # a bad cell above comes first
                    raise CliInputError(
                        "row %d has %d fields, expected %d" % (r, len(row), len(header))
                    )
                body.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise CliInputError("cannot read %s: %s" % (path, err)) from None
    if not body:
        raise CliInputError("%s has a header but no scenario rows" % path)
    try:
        probs, *losses = [list(map(float, cells)) for cells in list(zip(*body))[1:]]
    except ValueError:
        # float refused a cell, so _check_cells raises, naming the first one
        _check_cells(body, names)
    space = StateSpace(probs)  # validates mass and positivity
    profiles = {n: LossProfile(space, v) for n, v in zip(names, losses)}
    return space, profiles


def _check_cells(body, names):
    """Raise on the first cell of the data rows ``body``, in reading order,
    that is not a number, naming its row and column."""
    for r, row in enumerate(body, start=2):
        _parse_float(row[1], r, "prob")
        for name, cell in zip(names, row[2:]):
            _parse_float(cell, r, name)


def load_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise CliInputError("cannot read %s: %s" % (path, err)) from None
    except json.JSONDecodeError as err:
        raise CliInputError("%s is not valid JSON: %s" % (path, err)) from None


# -- measure construction ----------------------------------------------------


def _need(entry, field):
    if field not in entry:
        raise CliInputError(
            "measure %r: kind %r needs field %r"
            % (entry.get("name"), entry.get("kind"), field)
        )
    return entry[field]


def _capacity_from(value, k, where):
    # named capacity -> rank r: it aggregates to the r-th smallest member
    # value ("median" is the lower median)
    ranks = {"sup": k, "inf": 1, "median": (k + 1) // 2}
    if isinstance(value, str) and value in ranks:
        return order_statistic_capacity(k, ranks[value])
    if isinstance(value, dict):
        if "additive" in value:
            weights = value["additive"]
            if len(weights) != k:
                raise CliInputError(
                    "%s: additive capacity needs %d weights" % (where, k)
                )
            return additive_capacity(weights)
        if "order_statistic" in value:
            rank = value["order_statistic"]
            if not _is_integer(rank):
                raise CliInputError("%s: capacity rank must be an integer, got %r"
                                    % (where, rank))
            return order_statistic_capacity(k, rank)
        if "masks" in value:
            masks = value["masks"]
            if not isinstance(masks, dict):
                raise CliInputError("%s: capacity 'masks' must be an object, got %r"
                                    % (where, masks))
            return Capacity(k, {int(m): float(v) for m, v in masks.items()})
    raise CliInputError("%s: unrecognized capacity %r" % (where, value))


def _member_family(entry, built, space):
    names = _need(entry, "members")
    if not isinstance(names, list) or not names:
        raise CliInputError(
            "measure %r: 'members' must be a nonempty list" % entry.get("name")
        )
    members = []
    for m in names:
        if m not in built:
            raise CliInputError(
                "measure %r references unknown member %r" % (entry.get("name"), m)
            )
        members.append(built[m])
    if space is None:
        raise CliInputError(
            "measure %r: kind %r needs --input to fix the family space"
            % (entry.get("name"), entry.get("kind"))
        )
    return MeasureFamily(members, space)


def _beta(entry):
    return float(_need(entry, "beta"))


def _number_pairs(entry, field):
    return [(float(a), float(b)) for a, b in _need(entry, field)]


def _choquet(entry, fam, seed):
    mu = _capacity_from(
        _need(entry, "capacity"), fam.size, "measure %r" % entry["name"]
    )
    return choquet_measure(fam, mu, name=entry["name"])


def _infconv(entry, fam, seed):
    if seed is None:
        raise CliInputError(
            "measure %r: kind 'infconv' is solver backed and needs --seed"
            % entry["name"]
        )
    return infconv_measure(fam, SolverConfig(seed=seed), name=entry["name"])


# Spec kind -> (builder, aggregate).  A builder takes (entry, family, seed);
# the family is the MeasureFamily of an aggregate's members, else None.
# Builders look the *_measure factories up when called, so a factory that is
# wrapped in this module's namespace (as perfbench's tracer does) is the one run.
_KINDS = {
    "var": (lambda e, *_: var_measure(_beta(e)), False),
    "es": (lambda e, *_: es_measure(_beta(e)), False),
    "maxvar": (lambda e, *_: max_var_measure(_need(e, "members"), _beta(e)), False),
    "medvar": (lambda e, *_: med_var_measure(_need(e, "members"), _beta(e)), False),
    "lvar": (lambda e, *_: lvar_measure(
        LossBenchmark(_number_pairs(e, "benchmark_steps"))), False),
    "shortfall": (lambda e, *_: shortfall_measure(
        Utility(_number_pairs(e, "utility_knots"))), False),
    "entropic": (lambda e, *_: entropic_measure(float(_need(e, "lambda"))), False),
    "mean": (lambda e, *_: mean_measure(), False),
    "worst_case": (lambda e, *_: worst_case_measure(), False),
    "choquet": (_choquet, True),
    "blend": (lambda e, fam, _: ecb_blend_measure(
        fam, float(_need(e, "weight")), name=e["name"]), True),
    # measure form uses all singletons: the minimum of the members
    "margin": (lambda e, fam, _: ccp_margin_measure(
        fam, [(i,) for i in range(fam.size)], name=e["name"]), True),
    "infconv": (_infconv, True),
}

AGGREGATE_KINDS = tuple(kind for kind, (_, agg) in _KINDS.items() if agg)


def build_measures(spec_obj, space, seed):
    """Ordered {name: RiskEvaluator} from spec JSON, resolving member refs."""
    if not isinstance(spec_obj, dict) or not isinstance(
        spec_obj.get("measures"), list
    ):
        raise CliInputError("spec must be an object with a 'measures' list")
    entries = spec_obj["measures"]
    if not entries:
        raise CliInputError("spec lists no measures")
    built = {}
    kinds = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise CliInputError("each measure entry must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise CliInputError("every measure needs a nonempty string 'name'")
        if name in built:
            raise CliInputError("duplicate measure name %r" % name)
        kind = _need(entry, "kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise CliInputError("measure %r: unknown kind %r" % (name, kind))
        build, aggregate = _KINDS[kind]
        try:
            fam = _member_family(entry, built, space) if aggregate else None
            built[name] = build(entry, fam, seed)
        except (TypeError, ValueError) as err:
            # a malformed field: a value of the wrong type or form, or a
            # parameter out of its domain (DomainError)
            raise CliInputError("measure %r: %s" % (name, err)) from None
        kinds[name] = kind
    return built, kinds


# -- commands ----------------------------------------------------------------


def _load(args):
    """(spec, space, {column: profile}, measures, {name: kind}), spec first;
    without --input the space is None and there are no columns."""
    spec_obj = load_spec(args.spec)
    space, profiles = load_scenarios(args.input) if args.input else (None, {})
    measures, kinds = build_measures(spec_obj, space, args.seed)
    return spec_obj, space, profiles, measures, kinds


def _score(args, wanted):
    """Value every scenario column under the spec measures whose kind is in
    ``wanted``: (columns, {name: kind} of those measures, results).  The
    measures with a law record score each column on one law of it."""
    _, _, profiles, measures, kinds = _load(args)
    scored = {n: rho for n, rho in measures.items() if kinds[n] in wanted}
    results = {
        col: dict(zip(scored, _charges(list(scored.values()), x.values, x.space)))
        for col, x in profiles.items()
    }
    return list(profiles), {n: kinds[n] for n in scored}, results


def cmd_eval(args):
    columns, kinds, results = _score(args, _KINDS)
    _emit(args, input=args.input, columns=columns, measures=list(kinds),
          results=results)
    return 0


def cmd_aggregate(args):
    _, kinds, results = _score(args, AGGREGATE_KINDS)
    if not kinds:
        raise CliInputError("spec contains no aggregate measures")
    _emit(args, kinds=kinds, results=results)
    return 0


def _audit(args, measures, count, checks, **fields):
    """Report ``checks(rho, probes)`` for every measure on ``count`` seeded
    probes; exit status 1 when any check is violated."""
    probes = default_probe_set(seed=args.seed, count=count)
    reports = [
        dict(rep.to_dict(), measure=name)
        for name, rho in measures.items()
        for rep in checks(rho, probes)
    ]
    _emit(args, measures=list(measures), reports=reports, **fields)
    return int(any(r["verdict"] == "violated" for r in reports))


def cmd_axioms(args):
    spec_obj, _, _, measures, _ = _load(args)
    properties = spec_obj.get("properties", ["star_shaped"])
    if not isinstance(properties, list) or not all(
        isinstance(p, str) for p in properties
    ):
        raise CliInputError("'properties' must be a list of property names")
    return _audit(
        args, measures, _AXIOM_PROBES,
        lambda rho, probes: [
            check_axiom(rho, prop, probes, tol=args.tol) for prop in properties
        ],
        properties=properties,
    )


def cmd_envelope(args):
    _, _, _, measures, _ = _load(args)
    return _audit(
        args, measures, _ENVELOPE_PROBES,
        lambda rho, probes: [min_representation_check(rho, probes, tol=args.tol)],
    )


def cmd_infconv(args):
    _, space, profiles, measures, _ = _load(args)
    fam = MeasureFamily(list(measures.values()), space)
    gate = normality_check(fam, seed=args.seed)
    if not gate.passed:
        raise CliInputError(
            "normality check failed for %s; the split total is unbounded below"
            % list(measures)
        )
    config = SolverConfig(seed=args.seed)
    results = {}
    # the report is the search's own provenance (starts, best start,
    # convergence), so it runs the search even where an exact split exists
    for col, x in profiles.items():
        sol = _search_split(fam, x, config, assume_normal=True)
        results[col] = {
            "parts": [p.values for p in sol.parts],
            "total": sol.total,
            "meta": sol.meta,
        }
    normality = {
        "passed": gate.passed,
        "method": gate.method,
        "samples_used": gate.samples_used,
    }
    _emit(args, members=list(measures), normality=normality, results=results)
    return 0


def cmd_optimize(args):
    _, space, profiles, measures, _ = _load(args)
    table = ActionLossTable(list(profiles), list(profiles.values()))
    if len(measures) == 1:
        target = next(iter(measures.values()))
        method = "direct"
        gamma_source = target
    else:
        target = MeasureFamily(list(measures.values()), space)
        method = "robust"
        gamma_source = choquet_measure(target, sup_capacity(target.size))
    gammas = [
        envelope_member_measure(m)
        for m in envelope_family(gamma_source, table.losses)
    ]
    rep, action, value, joint = _decomposition(target, table, gammas, args.tol)
    _emit(args, actions=list(table.actions), measures=list(measures), method=method,
          argmin=action, value=value, decomposition_gap=abs(value - joint),
          decomposition=rep.to_dict())
    return 0 if rep.verdict == "holds_on_sample" else 1


def cmd_margin(args):
    spec_obj, space, profiles, measures, _ = _load(args)
    fam = MeasureFamily(list(measures.values()), space)
    admissible = spec_obj.get("admissible")
    if admissible is None:
        admissible = [[i] for i in range(fam.size)]
    if not isinstance(admissible, list) or not all(
        isinstance(s, list) and s for s in admissible
    ):
        raise CliInputError("'admissible' must be a list of nonempty index lists")
    for subset in admissible:
        for i in subset:
            if not isinstance(i, int) or not 0 <= i < fam.size:
                raise CliInputError(
                    "admissible index %r out of range for %d members"
                    % (i, fam.size)
                )
    config = SolverConfig(seed=args.seed)
    results = {}
    for col, x in profiles.items():
        subset, sol = ccp_margin(fam, admissible, x, config)
        results[col] = {
            "subset": list(subset),
            "parts": [p.values for p in sol.parts],
            "total": sol.total,
        }
    _emit(args, members=list(measures), admissible=admissible, results=results)
    return 0


# command -> (handler, --input required, samples so --seed required)
_COMMANDS = {
    "eval": (cmd_eval, True, False),
    "axioms": (cmd_axioms, False, True),
    "aggregate": (cmd_aggregate, True, False),
    "envelope": (cmd_envelope, False, True),
    "infconv": (cmd_infconv, True, True),
    "optimize": (cmd_optimize, True, False),
    "margin": (cmd_margin, True, True),
}


@cache
def _parser():
    """The argument parser, built on first use; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="starrisk",
        description="Evaluate, audit, aggregate, and optimize risk measures "
        "on finite scenario tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, input_required, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=input_required,
                       help="scenario CSV (state,prob,<columns...>)")
        p.add_argument("--spec", required=True,
                       help="measure-spec JSON; kinds: " + ", ".join(_KINDS))
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; required for sampling-backed commands")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="tolerance passed to property checks")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    fn, _, samples = _COMMANDS[args.command]
    if samples and args.seed is None:
        sys.stderr.write(
            "error: command %r samples; --seed is required\n" % args.command
        )
        return 2
    if not 0.0 <= args.tol < math.inf:
        sys.stderr.write(
            "error: --tol must be nonnegative and finite, got %g\n" % args.tol
        )
        return 2
    if args.seed is not None and args.seed < 0:
        sys.stderr.write("error: --seed must be nonnegative, got %d\n" % args.seed)
        return 2
    try:
        return fn(args)
    except (CliInputError, DomainError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
