"""pharmap benchmark: time per operation on four workloads, with per-layer numbers.

Run from the root of a checkout::

    python3 bench/run.py --workload small_solves --seed 0 --seconds 28 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned and its outputs have been checked.  The batch
repeats the workload's list of operations (a cycle) until ``--seconds``
would be exceeded; the first cycle always runs whole.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` first runs half the time untraced, then sets up again with
the counting chart and warps, wraps the package's public functions in
spans, and runs whole cycles for the other half; it prints the per-layer
metrics and writes the spans to ``bench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import env  # before numpy: one BLAS thread, checkout sources

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

if __name__ == "__main__" and not env.have_sources():
    print(f"bench: no package sources under {env.SRC}; run from the root of a checkout",
          file=sys.stderr)
    sys.exit(2)

import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pharmap import solver  # noqa: E402
from pharmap.chart import TargetChart  # noqa: E402
from tracing import CountingChart, Kit, Tracer  # noqa: E402
from workloads import Outcome  # noqa: E402

SETUP_REPEATS = 8  # set-ups timed before the batch
SETUP_EVERY_S = 0.5  # then a burst after an operation, at most this often
SETUP_BURST = 3  # set-ups in a row, so that later ones find warm caches
PROBE_REPEATS = 5  # single solver calls timed per probe; the fastest counts


class Reference:
    """A fixed numpy and Python kernel that shares no code with the package.

    It is timed right before and right after every operation, and the
    operation's time divided by the mean of the two is its time in reference
    units.  The slow spells of a shared machine stretch both alike, so the
    ratio stays steady where seconds do not; a change to the package moves
    the operation and not the reference.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8192, 3, 2))
        self.b = rng.standard_normal((8192, 3, 2))
        self.idx = rng.integers(0, 4096, 3 * 8192)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        c = np.einsum("tij,tik->tjk", self.a, self.b)
        np.bincount(self.idx, weights=np.repeat(c[:, 0, 0], 3), minlength=4096)
        x = 0.0
        for i in range(3000):
            x += i * 0.5
        return time.perf_counter() - t0


REFERENCE = Reference()


@dataclass
class Record:
    cycle: int
    op: object
    outcome: object
    seconds: float
    ref: float  # mean time of the reference kernel just before and after
    counts: Counter  # tracer counts added during the operation
    spans: tuple  # (first, end) indices of the operation's spans


def run_batch(ops, seconds, tracer=None, whole_cycles=False, between=None):
    """Closed loop over ``ops``; returns the records of every operation run.

    Before each operation (after the first cycle) the loop stops if the last
    time of that operation would carry the batch past ``seconds``.  With
    ``whole_cycles`` it stops only between cycles, using the last cycle's time.
    ``between`` is called after an operation, at most every ``SETUP_EVERY_S``.
    """
    records = []
    last = {}
    start = time.perf_counter()
    next_between = start + SETUP_EVERY_S
    cycle = 0
    cycle_s = 0.0
    while cycle == 0 or not whole_cycles or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        for op in ops:
            if cycle and not whole_cycles and time.perf_counter() - start + last[op.name] > seconds:
                return records
            before = Counter(tracer.counts) if tracer else None
            first = len(tracer.spans) if tracer else 0
            ref = REFERENCE()
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # reported as a failed operation, the batch goes on
                out, err = None, exc
            dt = time.perf_counter() - t0
            ref = (ref + REFERENCE()) / 2.0
            counts = Counter(tracer.counts) - before if tracer else Counter()
            spans = (first, len(tracer.spans) if tracer else 0)
            with tracer.recording(False) if tracer else nullcontext():
                if err is None:
                    outcome = op.check(out)
                else:
                    outcome = Outcome(False, [f"raised {type(err).__name__}: {err}"])
            last[op.name] = dt
            records.append(Record(cycle, op, outcome, dt, ref, counts, spans))
            if between is not None and time.perf_counter() >= next_between:
                between()
                next_between = time.perf_counter() + SETUP_EVERY_S
        cycle_s = time.perf_counter() - cycle_start
        cycle += 1
    return records


def summarize(ops, records):
    """End-to-end figures of a batch.

    ``time_per_op`` is the mean over the operations of a cycle of each one's
    median time in reference units (see ``Reference``).  ``s_per_op`` is the cycle time divided by the operations in a cycle.  The
    cycle time adds up, over the operations, the fastest of each one's
    repetitions: every repetition does the same work on the same inputs, and
    the slow spells of a shared machine only ever add time.  ``s_per_result``
    divides the same cycle time by the checked results a cycle produces (or
    is the cycle time when a cycle produces none), and
    ``failed_frac`` is the share of a cycle's operations without one; both
    average each operation over its repetitions, so they do not depend on
    where the batch stopped.  ``failed`` counts the operations that raised,
    diverged or failed a check; a stalled solve with correct outputs is not
    among them.
    """
    times = {op.name: [] for op in ops}
    rel = {op.name: [] for op in ops}
    results = {op.name: [] for op in ops}
    for r in records:
        times[r.op.name].append(r.seconds)
        rel[r.op.name].append(r.seconds / r.ref)
        results[r.op.name].append(r.outcome.result)
    cycle_s = sum(min(t) for t in times.values())
    per_cycle = sum(statistics.fmean(v) for v in results.values())
    failed = sum(r.outcome.failed for r in records)
    return {
        "time_per_op": sum(statistics.median(v) for v in rel.values()) / len(ops),
        "s_per_op": cycle_s / len(ops),
        "s_per_result": cycle_s / per_cycle if per_cycle else cycle_s,
        "failed_frac": 1.0 - per_cycle / len(ops),
        "attempted": len(records),
        "failed": failed,
        "stops": dict(Counter(r.outcome.stop for r in records if r.outcome.stop)),
        "problems": [f"{r.op.name}: {p}" for r in records for p in r.outcome.problems],
    }


def warm_up(ops):
    """Let lazy imports and first-call costs of the solver and the reference
    kernel happen before timing."""
    for _ in range(3):
        REFERENCE()
    seen = set()
    for op in ops:
        if op.solve is None:
            continue
        m, chart, bvals, config = op.solve
        key = (id(m), id(chart), config.quadrature)
        if key in seen:
            continue
        seen.add(key)
        state = solver.harmonic_init(m, bvals)
        solver.energy(m, chart, state, config.p, quadrature=config.quadrature)
        solver.energy_gradient(m, chart, state, config.p, quadrature=config.quadrature)


def timed_setups(workload, seed, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = workload.setup(seed, Kit())
        times.append(time.perf_counter() - t0)
    return ops, times


def timed_run(workload, seed, seconds):
    """Set-up time is sampled before the batch and all through it, and the
    fastest sample counts: every set-up does the same work, and a slow spell
    of the machine only ever adds time."""
    ops, setup_s = timed_setups(workload, seed, SETUP_REPEATS)
    warm_up(ops)

    def sample_setup():
        setup_s.extend(timed_setups(workload, seed, SETUP_BURST)[1])

    summary = summarize(ops, run_batch(ops, seconds, between=sample_setup))
    metrics = {
        "time_per_op": summary["time_per_op"],
        "setup_s": min(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {key: summary[key] for key in ("s_per_op", "s_per_result", "failed_frac")}
    return summary, metrics, extra


def fastest_call(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def solver_probes(op, repeats=PROBE_REPEATS):
    """Single energy and energy+gradient calls at the harmonic_init state.

    Each is the fastest of ``repeats`` calls: a single call is short enough
    that a slow spell of the machine can cover all of them, and the fastest
    is the figure a slow spell disturbs least.
    """
    m, chart, bvals, config = op.solve
    plain = TargetChart(chart.manifold)
    state = solver.harmonic_init(m, bvals)
    p, q = config.p, config.quadrature
    return {
        "energy_s": fastest_call(lambda: solver.energy(m, plain, state, p, quadrature=q), repeats),
        "energy_gradient_s": fastest_call(
            lambda: solver.energy_gradient(m, plain, state, p, quadrature=q), repeats),
        "energy_gradient_s.threads2": fastest_call(
            lambda: solver.energy_gradient(m, plain, state, p, quadrature=q, threads=2), repeats),
    }


def metric_calls_per_energy(op):
    """Chart ``metric`` calls one energy evaluation makes on this mesh and rule."""
    m, chart, bvals, config = op.solve
    counter = Tracer()
    counting = CountingChart(chart.manifold, counter)
    state = solver.harmonic_init(m, bvals)
    with counter.recording():
        solver.energy(m, counting, state, config.p, quadrature=config.quadrature)
    return counter.counts["chart.metric_calls"]


def cycle_metrics(records, spans, probes, calls_per_eval):
    """Per-layer metrics of one traced cycle."""
    lo = min(r.spans[0] for r in records)
    hi = max(r.spans[1] for r in records)
    out = tracing.layer_times(spans, lo, hi)
    counts = sum((r.counts for r in records), Counter())
    out.update({name: counts[name] for name in tracing.COUNT_NAMES})
    stops = Counter(r.outcome.stop for r in records if r.op.solve is not None)
    n_f = n_fg = accepted = 0
    model_s = 0.0
    for r in records:
        if r.op.solve is None:
            continue
        per = calls_per_eval[r.op.name]
        fg = r.counts["chart.metric_jacobian_calls"] // per if per else 0
        f = (r.counts["chart.metric_calls"] - r.counts["chart.metric_jacobian_calls"]) // per if per else 0
        n_f += f
        n_fg += fg
        accepted += max(fg - 1, 0)  # one energy+gradient at the start, one per accepted step
        model_s += f * probes[r.op.name]["energy_s"] + fg * probes[r.op.name]["energy_gradient_s"]
    out.update({
        "solver.iterations": sum(r.outcome.iterations for r in records),
        "solver.n_f": n_f,
        "solver.n_fg": n_fg,
        "solver.backtracks": n_f - accepted,
        "solver.ls_accept_ratio": accepted / n_f if n_f else 0.0,
        "solver.other_s": out["solver.solve_s"] - model_s - out["solver.harmonic_init_s"],
    })
    out.update({f"solver.stop.{s}": stops[s] for s in workloads.STOPS})
    return out


#: per-layer metrics that must repeat exactly from cycle to cycle and run to run
EXACT = ("solver.iterations", "solver.n_f", "solver.n_fg", "solver.backtracks",
         "solver.ls_accept_ratio", "solver.stop.converged", "solver.stop.stalled",
         "solver.stop.max_iter", "solver.stop.nonfinite", "chart.metric_calls",
         "chart.metric_jacobian_calls", "chart.points", "chart.bytes_out",
         "warp.evaluate_calls", "glue.k_doublings", "blend.k_doublings")


def traced_run(workload, seed, seconds, trace_path):
    ops = workload.setup(seed, Kit())
    warm_up(ops)
    untraced_records = run_batch(ops, seconds / 2.0)
    untraced = summarize(ops, untraced_records)
    problems = [f"selftest: {p}" for p in selftest.run()]

    probes = {op.name: solver_probes(op) for op in ops if op.solve is not None}
    calls_per_eval = {op.name: metric_calls_per_energy(op) for op in ops if op.solve is not None}

    tracer = Tracer()
    with tracing.instrument(tracer):
        with tracer.recording():
            traced_ops = workload.setup(seed, Kit(tracer))
        setup_part = tracing.layer_times(tracer.spans, 0, len(tracer.spans))
        setup_counts = Counter(tracer.counts)
        with tracer.recording():
            traced_records = run_batch(traced_ops, seconds / 2.0, tracer, whole_cycles=True)
    traced = summarize(traced_ops, traced_records)

    cycles = sorted({r.cycle for r in traced_records})
    per_cycle = [cycle_metrics([r for r in traced_records if r.cycle == c], tracer.spans,
                               probes, calls_per_eval) for c in cycles]
    for c, m in zip(cycles[1:], per_cycle[1:]):
        differ = [k for k in EXACT if m[k] != per_cycle[0][k]]
        if differ:
            problems.append(f"cycle {c} repeats cycle 0 inexactly: {', '.join(differ)}")
    metrics = {}
    for key in per_cycle[0]:
        if key in EXACT:
            metrics[key] = per_cycle[0][key]
        else:
            metrics[key] = statistics.median(m[key] for m in per_cycle)
    for key, value in setup_part.items():
        metrics[key] += value
    for key in tracing.COUNT_NAMES:
        metrics[key] += setup_counts[key]
    main = probes.get(workload.main_op, {})
    for key in ("energy_s", "energy_gradient_s", "energy_gradient_s.threads2"):
        metrics[f"solver.{key}"] = main.get(key, 0.0)
    metrics["batch.s_per_result"] = untraced["s_per_result"]
    metrics["batch.failed_frac"] = untraced["failed_frac"]
    metrics["batch.s_per_op"] = untraced["s_per_op"]
    metrics["trace.overhead"] = traced["time_per_op"] - untraced["time_per_op"]

    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "cycles": len(cycles)})
    summary = dict(untraced)
    summary["problems"] = untraced["problems"] + traced["problems"] + problems
    summary["attempted"] += traced["attempted"]
    summary["failed"] += traced["failed"]
    summary["stops"] = dict(Counter(untraced["stops"]) + Counter(traced["stops"]))
    return summary, metrics, {"traced_cycles": len(cycles), "time_per_op.untraced": untraced["time_per_op"],
                              "time_per_op.traced": traced["time_per_op"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = env.ROOT / "bench" / "out"
    workdir = out_dir / f"tmp-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, str(workdir))
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            summary, metrics, extra = traced_run(workload, args.seed, args.seconds, trace_path)
        else:
            summary, metrics, extra = timed_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 3
    for problem in summary["problems"]:
        print(f"CHECK FAILED {problem}")
    print(f"{args.workload} seed={args.seed} attempted={summary['attempted']} failed={summary['failed']}"
          f" solve stops={summary['stops']}")
    for name, value in extra.items():
        print(f"  {name} = {value!r}")
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
