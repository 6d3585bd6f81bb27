#!/usr/bin/env python3
"""Run one benchmark workload and print every metric with its unit.

From the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload dse --seed 1 --seconds 10 --trace 1

``serve`` runs but is not a declared workload: the default serve engine's
verdicts differ from the reference engine's on some seeds (``--seed 4``
fails its output check), see ``perfbench/README.md``.

``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` repeats the measurement untraced, then traced, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when an output differs from its oracle and
2 when the benchmark cannot run at all (for example without ``src/``).
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace

import harness

WORKLOADS = ("replay", "serve", "dse")

#: Root spans of the timed operations of each workload.
OP_ROOTS = {
    "replay": ("op.replay.cold", "op.replay.warm"),
    "serve": ("op.serve.cold", "op.serve.warm"),
    "dse": ("op.dse",),
}

#: Per-layer metric -> (span name, field); values are per timed operation.
SPAN_METRICS = {
    "datasets.soa_build_s": ("datasets.soa_build", "self_s"),
    "datasets.generate_s": ("datasets.generate", "self_s"),
    "datasets.materialize_s": ("datasets.materialize", "self_s"),
    "dataplane.window_s": ("dataplane.window", "self_s"),
    "dataplane.window_calls": ("dataplane.window", "calls"),
    "dataplane.lookup_s": ("dataplane.lookup", "self_s"),
    "dataplane.finalise_s": ("dataplane.finalise", "self_s"),
    "dataplane.scalar_s": ("dataplane.scalar", "self_s"),
    "dataplane.scalar_packets": ("dataplane.scalar", "calls"),
    "dataplane.slots_s": ("dataplane.slots", "self_s"),
    "dataplane.score_s": ("dataplane.score", "self_s"),
    "pipeline.program_build_s": ("pipeline.program_build", "self_s"),
    "ml.train_s": ("ml.train", "self_s"),
    "core.candidate_s": ("core.candidate", "self_s"),
    "core.evaluate_s": ("core.evaluate", "self_s"),
    "core.rulegen_s": ("core.rulegen", "self_s"),
    "core.backend_s": ("core.backend", "self_s"),
    "bayesopt.ask_s": ("bayesopt.ask", "self_s"),
    "bayesopt.tell_s": ("bayesopt.tell", "self_s"),
}

#: Span metrics of the serve layers.  ``serve`` is not a declared workload
#: (see README), so these are printed but stay out of the JSON line.
SERVE_SPAN_METRICS = {
    "datasets.chunk_s": ("datasets.chunk", "self_s"),
    "serve.ingest_s": ("serve.ingest", "self_s"),
    "serve.ingest_calls": ("serve.ingest", "calls"),
    "serve.drain_s": ("serve.drain", "self_s"),
    "serve.verdicts_poll_s": ("serve.verdicts", "self_s"),
    "serve.flushes": ("dataplane.begin_flows", "calls"),
}

#: Per-layer metric -> span name; values are seconds per model build.  The
#: set-up runs the stages in order, so a stage's span holds only its own work.
SETUP_METRICS = {
    "pipeline.prepare_s": "pipeline.prepare",
    "pipeline.train_s": "pipeline.train",
    "pipeline.compile_s": "pipeline.compile",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of the timed phase (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop offered rate R in pkt/s "
                             "(default: the value in BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.rate is not None and args.rate <= 0:
        parser.error("--rate must be positive")
    return args


def run_workload(workload: str, seed: int, seconds: float, trace: bool, rate: float,
                 sizes, tally) -> dict:
    """Measure one workload; returns ``metrics`` (name -> value), ``report`` and ``meta``."""
    import tracer
    import workloads

    recorder = tracer.SpanRecorder() if trace else None
    dep = None
    if workload == "dse":
        setup_s = None if trace else workloads.dse_setup(sizes)

        def measure(phase_seconds, phase_sizes, spans, probed=False):
            return workloads.run_dse(seed, phase_seconds, phase_sizes, tally, spans)
    else:
        with tracer.traced(recorder) if trace else nullcontext():
            n_sets = sizes.traffic_sets if workload == "replay" else 1
            dep = workloads.deploy(seed, sizes, recorder or workloads.NULL_TRACER, n_sets)
        setup_s = dep.setup_s
        workloads.attach_oracle(dep)

        def measure(phase_seconds, phase_sizes, spans, probed=False):
            if workload == "replay":
                return workloads.run_replay(dep, phase_seconds, phase_sizes, tally, spans)
            # The traced phase skips the open loop: its figures come untraced.
            return workloads.run_serve(dep, phase_seconds, rate, phase_sizes, tally, spans,
                                       open_loop=not probed, watch_buffer=probed)

    out = measure(seconds, sizes, workloads.NULL_TRACER)
    if trace:
        with tracer.traced(recorder):
            traced = measure(seconds / 2, replace(sizes, min_ops=1, min_searches=1),
                             recorder, probed=True)

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "offered_rate_pps": rate,
        "host": harness.host_fingerprint(),
        "timed_ops": out["ops"],
        "host_slowdown": out["slowdown"],
    }
    if dep is not None:
        meta.update(traffic_sets=len(dep.sets), packets=dep.packets,
                    flows=[len(traffic_set.traffic.flows) for traffic_set in dep.sets],
                    replay_engine=dep.spec.resolved_engine(),
                    serve_engine=dep.spec.serve.engine, flow_slots=dep.spec.flow_slots,
                    setup_builds=dep.builds, setup_raw_s=dep.setup_raw_s)
    if "samples" in out:
        meta["percentiles"] = out["samples"]
    if not trace:
        metrics = dict(out["metrics"], setup_s=setup_s, peak_rss_mb=harness.peak_rss_mb())
        return {"metrics": metrics, "report": out["report"], "meta": meta}

    overhead = out["metrics"]["rate_per_s"] / traced["metrics"]["rate_per_s"] - 1.0
    # Open-loop figures exist only untraced; everything else comes from the
    # traced phase.
    extras = {**out["extras"], **traced["extras"]}
    metrics = layer_metrics(recorder, workload, traced["ops"], extras, dep)
    metrics["trace.overhead_pct"] = 100.0 * overhead
    meta["traced_ops"] = traced["ops"]
    trace_path = harness.TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    recorder.dump(trace_path)
    meta["spans"] = str(trace_path.relative_to(harness.ROOT))
    report = out["report"] + [("tracing overhead", 100.0 * overhead, "%",
                               "untraced rate_per_s / traced rate_per_s - 1")]
    return {"metrics": metrics, "report": report, "meta": meta,
            "layers": layer_table(recorder, workload, traced["ops"])}


def layer_metrics(recorder, workload: str, ops: int, extras: dict, dep) -> dict:
    """Per-layer numbers of the traced phase (per op) and of the traced set-up.

    ``extras`` carries the numbers the workload measured itself; layers a
    workload never reaches report 0.  The serve layers are reported on
    ``serve`` only.
    """
    totals = recorder.layer_totals(OP_ROOTS[workload])
    span_metrics = SPAN_METRICS
    if workload == "serve":
        span_metrics = {**SPAN_METRICS, **SERVE_SPAN_METRICS}
    values = {
        metric: totals.get(span, {}).get(field, 0) / ops
        for metric, (span, field) in span_metrics.items()
    }
    setup = recorder.layer_totals(("setup.model",))
    for metric, span in SETUP_METRICS.items():
        values[metric] = setup[span]["total_s"] / dep.builds if span in setup else 0.0
    if workload == "serve":
        flushes = totals.get("dataplane.begin_flows")
        values["serve.flows_per_flush"] = flushes["items"] / flushes["calls"] if flushes else 0.0
    # Packets of one op: ops cycle through the traffic sets.
    packets = dep.packets / len(dep.sets) if dep is not None else 0
    values["dataplane.fast_path_share"] = (
        1.0 - values["dataplane.scalar_packets"] / packets if packets else 0.0
    )
    values["setup.traffic_s"] = dep.traffic_s if dep is not None else 0.0
    values.update({
        name: 0.0 for name in (
            "switch.recirculations", "dse.candidates", "dse.feasible_share", "dse.unique_share",
        )
    })
    values.update(extras)
    return values


def layer_table(recorder, workload: str, ops: int) -> list[tuple]:
    """(span, calls/op, self ms/op, total ms/op), heaviest self time first."""
    totals = recorder.layer_totals(OP_ROOTS[workload])
    rows = [
        (name, entry["calls"] / ops, entry["self_s"] * 1e3 / ops, entry["total_s"] * 1e3 / ops)
        for name, entry in totals.items()
    ]
    return sorted(rows, key=lambda row: -row[2])


def result_line(declaration: dict, metrics: dict, trace: bool, tally) -> dict:
    """The final JSON object; every declared metric, in declared order, with its unit.

    Measured metrics that are not declared (the serve-only layers) stay out
    of it; :func:`undeclared` lists them.
    """
    declared = declaration["per_layer" if trace else "end_to_end"]
    missing = {entry["name"] for entry in declared} - set(metrics)
    if missing:
        raise harness.BenchmarkError(f"declared metrics {sorted(missing)} were not measured")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in declared
        },
    }


def undeclared(declaration: dict, metrics: dict, trace: bool) -> dict:
    """Measured metrics that ``BENCHMARK.json`` does not declare."""
    declared = {entry["name"] for entry in declaration["per_layer" if trace else "end_to_end"]}
    return {name: value for name, value in metrics.items() if name not in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.prepare_import()
        declaration = harness.load_declaration()
        rate = args.rate if args.rate is not None else harness.declared_rate(declaration)
    except (harness.BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from workloads import Sizes, Tally

    tally = Tally()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               rate, Sizes(), tally)
        line = result_line(declaration, outcome["metrics"], bool(args.trace), tally)
    except harness.OutputMismatch as exc:
        tally.failed += 1
        print(f"perfbench: OUTPUT MISMATCH: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1

    print(json.dumps(outcome["meta"], indent=1, sort_keys=True))
    for name, value, unit, note in outcome["report"]:
        print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")
    for row in outcome.get("layers", []):
        print(f"  span {row[0]:<24} calls/op {row[1]:>10.1f}  self {row[2]:>10.3f} ms/op"
              f"  total {row[3]:>10.3f} ms/op")
    for name, value in undeclared(declaration, outcome["metrics"], bool(args.trace)).items():
        print(f"{name:<28} {float(value):>14.6g} (not declared)")
    for name, entry in line["metrics"].items():
        print(f"{name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
