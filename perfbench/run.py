"""Benchmark of the starrisk library: one workload per run.

    python3 perfbench/run.py --workload bulk_eval --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, the output checks use ``tests/oracles.py`` and the CLI workload
reads ``tests/data``.  Each workload is a closed loop with one client in
this one process.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it measures the per-layer metrics instead (see
README.md).  The last line of standard output is the result as one JSON
object; the line before it is the run record.  Files the run writes go to
``perfbench/work/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

# One client, no threads: keep numpy's BLAS pool to a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import sweep  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

# The timed loop runs in this many slices with one set-up after each, plus
# one before it.  The host's speed changes in phases of seconds, and set-ups
# take under 0.1 s, so only set-ups spread through the whole run sample the
# same phases as the ops; grouped at a few times, their median swung by half.
SETUP_SLICES = 24
# op_ms_p90 needs ten samples above it: a run makes at least this many ops
# even if that takes longer than --seconds.
MIN_OPS = 100
# Ops take turns on the CPUs this process may use.  On a shared host each
# CPU has its own slow phases of seconds to minutes, so an op's repeats
# spread over all CPUs are far likelier to include one on a CPU that is
# fast at the time (see README.md, "Op cost").
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# Counters read from the traced run: span name -> reported fields.
COUNTED = (
    ("aggregate.inf_convolution", ("calls", "evals_per_call")),
    ("aggregate.normality_check", ("calls", "ms_per_call")),
    ("aggregate.ccp_margin", ("calls", "ms_per_call")),
    ("envelope.penalty_of", ("calls", "ms_per_call")),
    ("envelope.min_representation_check", ("calls", "ms_per_call")),
    ("optimize.decomposition_check", ("calls", "ms_per_call")),
    ("axioms.check_axiom", ("calls", "ms_per_call", "evals_per_call")),
) + tuple(("cli." + cmd, ("calls", "ms_per_call")) for cmd in (
    "eval", "axioms", "aggregate", "envelope", "infconv", "optimize", "margin"))
UNITS = {"calls": "count", "ms_per_call": "ms", "evals_per_call": "count"}


class Library:
    """The package and its modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "starrisk" or m.startswith("starrisk.")]:
            del sys.modules[name]
        import starrisk
        import starrisk.cli

        self.package = starrisk
        for layer in LAYERS:
            setattr(self, layer, getattr(starrisk, layer))


def set_up(workload, repeats, times):
    """Import plus building every library object and input file, repeated;
    appends each time to ``times`` and returns the last library and build."""
    for _ in range(repeats):
        t0 = clock()
        lib = Library()
        built = workload.build(lib)
        times.append(clock() - t0)
    return lib, built


class Pass:
    """The (op, seconds) samples and failures of one loop over the ops."""

    def __init__(self):
        self.samples = []
        self.failures = []

    def costs(self):
        """Each sample's op cost: the fastest time that same op took in this
        pass.  Other tenants of a shared host only ever slow an op down, so
        its fastest repeat is the estimate of what the library costs."""
        best = {}
        for op, dt in self.samples:
            best[id(op)] = min(dt, best.get(id(op), dt))
        return [best[id(op)] for op, _ in self.samples]

    def by_kind(self):
        """{kind: [ops, median ms, fastest ms]} in order of median latency."""
        groups = {}
        for op, dt in self.samples:
            groups.setdefault(op.kind, []).append(1e3 * dt)
        rows = {k: [len(v), statistics.median(v), min(v)] for k, v in groups.items()}
        return dict(sorted(rows.items(), key=lambda kv: kv[1][1]))


def run_ops(ops, call, seconds=None, count=None, min_ops=0, result=None):
    """Closed loop over the round of ops until the time or count is reached.

    ``call(op)`` returns (output, seconds).  An op fails if it raises or its
    check rejects the output; checks run outside the timed call.  Passing
    an earlier ``result`` continues it where it stopped.
    """
    result = result or Pass()
    end = clock() + (seconds or 0.0)
    i = len(result.samples)
    while (i < count) if count is not None else (clock() < end or i < min_ops):
        op = ops[i % len(ops)]
        if len(CPUS) > 1:  # next CPU for each op, and each round starts one further
            os.sched_setaffinity(0, {CPUS[(i % len(ops) + i // len(ops)) % len(CPUS)]})
        i += 1
        out, dt = call(op)
        result.samples.append((op, dt))
        try:
            ok = not isinstance(out, Exception) and bool(op.check(out))
        except Exception as err:  # a malformed output fails the op
            ok, out = False, err
        if not ok:
            result.failures.append({"op": i - 1, "kind": op.kind, "output": repr(out)[:200]})
    return result


def untraced(op):
    t0 = clock()
    try:
        out = op.call()
    except Exception as err:  # an op that raises counts as failed
        out = err
    return out, clock() - t0


def latency_metrics(seconds):
    q = statistics.quantiles([1e3 * t for t in seconds], n=10, method="inclusive")
    return {
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "op_ms_p50": (q[4], "ms"),
        "op_ms_p90": (q[8], "ms"),
    }


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            text = fh.read().strip()
        if text.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", text[5:])) as fh:
                text = fh.read().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def traced_metrics(workload, lib, ops, refs, seconds, seed, record):
    """Untraced and traced passes over the same ops, then the size sweep."""
    plain = run_ops(ops, untraced, seconds=seconds / 2.0)
    record["kinds"] = plain.by_kind()
    tracer = Tracer(lib, watch=("aggregate.inf_convolution", "axioms.check_axiom"))
    tracer.install()
    try:
        # Rebuild so that evaluators come from the counting factories.
        built = workload.build(lib)
        ops = workload.ops(lib, built, refs)
        tracer.reset()

        def traced(op):
            t0 = clock()
            try:
                return tracer.op(op.kind, op.call)
            except Exception as err:  # an op that raises counts as failed
                return err, clock() - t0

        traced_pass = run_ops(ops, traced, count=len(plain.samples))
        stats = {name: (s.calls, s.total, s.self_time, s.evals) for name, s in tracer.stats.items()}
        calls = {name: list(c) for name, c in tracer.calls.items()}
        shares = tracer.layer_shares()
        per_call = {name: tracer.per_call(name) for name, _ in COUNTED}
        # Replay the first op: its evaluator count must repeat exactly.
        first = tracer.ops[0]
        tracer.op(ops[0].kind, ops[0].call)
        replayed = tracer.ops[-1]
    finally:
        tracer.uninstall()
    if replayed[3] != first[3]:
        traced_pass.failures.append({
            "op": 0, "kind": first[0],
            "output": "evaluator count %d on replay, %d first" % (replayed[3], first[3]),
        })

    metrics = {}
    for name, fields in COUNTED:
        n_calls, ms, evals = per_call[name]
        values = {"calls": n_calls, "ms_per_call": ms, "evals_per_call": evals}
        for field in fields:
            metrics["%s.%s" % (name, field)] = (values[field], UNITS[field])
    solves = calls["aggregate.inf_convolution"]
    converged = [bool(out.meta.get("converged")) for _, out in solves]
    metrics["aggregate.inf_convolution.converged_share"] = (
        sum(converged) / len(converged) if converged else 0.0, "share")
    for layer, share in shares.items():
        metrics["%s.share" % layer] = (share, "share")
    metrics["trace.overhead"] = (1.0 - sum(plain.costs()) / sum(traced_pass.costs()), "share")

    sweep_ms, probes, findings = sweep.run(lib, seed, clock)
    for name, ms in sweep_ms.items():
        metrics[name] = (ms, "ms")

    record["traced"] = {
        "ops_untraced": len(plain.samples),
        "ops_traced": len(traced_pass.samples),
        "spans": {name: {"calls": c, "total_s": t, "self_s": s, "evals": e}
                  for name, (c, t, s, e) in sorted(stats.items())},
        "inf_convolution_evals": [e for e, _ in solves],
        "inf_convolution_converged": converged,
        "check_axiom_evals": [e for e, _ in calls["axioms.check_axiom"]],
        "first_op": {"kind": first[0], "evals": first[3], "evals_on_replay": replayed[3]},
    }
    record["probes"] = probes
    record["findings"] = findings
    record["trace.overhead"] = metrics["trace.overhead"][0]
    return metrics, len(plain.samples) + len(traced_pass.samples), plain.failures + traced_pass.failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, WORK)
    setup_times = []
    lib, built = set_up(workload, 1, setup_times)
    refs = workload.references()
    ops = workload.ops(lib, built, refs)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "ops_per_round": len(ops),
    }
    if args.trace:
        metrics, attempted, failures = traced_metrics(
            workload, lib, ops, refs, args.seconds, args.seed, record)
    else:
        # Slice ends are fixed from the start, so that ops overrunning a
        # slice end and the set-ups do not lengthen the run.
        start, loop = clock(), None
        for k in range(1, SETUP_SLICES + 1):
            loop = run_ops(ops, untraced, seconds=start + args.seconds * k / SETUP_SLICES - clock(),
                           min_ops=MIN_OPS if k == SETUP_SLICES else 0, result=loop)
            set_up(workload, 1, setup_times)
        attempted, failures = len(loop.samples), loop.failures
        record["kinds"] = loop.by_kind()
        record["as_timed"] = {k: v for k, (v, _) in
                              latency_metrics([dt for _, dt in loop.samples]).items()}
        metrics = latency_metrics(loop.costs())
        metrics["ok_op_share"] = (1.0 - len(failures) / attempted, "share")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        record["trace.overhead"] = None
    if hasattr(workload, "scale_slice"):
        checked, slice_failures = workload.scale_slice(lib, built, refs)
        record["scale_slice"] = {"checked": checked, "failed": len(slice_failures),
                                 "failures": slice_failures}
    record["failures"] = failures[:20]

    path = os.path.join(WORK, "%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    summary = {k: v for k, v in record.items() if k not in ("traced", "kinds", "scale_slice")}
    if "scale_slice" in record:
        summary["scale_slice"] = {k: record["scale_slice"][k] for k in ("checked", "failed")}
    print(json.dumps({"run_record": summary}, default=str))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
