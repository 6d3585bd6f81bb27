"""The three workloads: ``replay``, ``serve`` and ``dse``.

Every workload runs the spec defaults a ``python -m repro`` user gets
(:class:`repro.pipeline.ExperimentSpec` with no arguments) and drives the
system only through its public entry points.  Each timed operation is
checked against :mod:`oracle` outside the timed region.

Each ``run_*`` function returns a dict with the end-to-end ``metrics``, the
human-readable ``report`` lines, the number of timed ``ops``, the phase's
host ``slowdown`` and the per-layer ``extras`` a traced run adds to its span
totals.  Rates and operation times in ``metrics`` are normalised by the
slowdown (:class:`harness.HostSpeed`); ``report`` shows them as measured.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter, sleep

import numpy as np

from harness import (
    ISOLATED_ENV,
    ROOT,
    SRC,
    BenchmarkError,
    HostSpeed,
    OutputMismatch,
    summarize,
)
from oracle import ReplayOracle, check_search, history_digest


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  The defaults are the benchmark; the self-test shrinks them."""

    traffic_flows: int = 2000
    #: Traffic sets of ``traffic_flows`` each that one ``replay`` run cycles through.
    traffic_sets: int = 3
    #: Training flows of the model and of the DSE dataset (None: spec default).
    model_flows: int | None = None
    #: Candidates per design search (None: spec default).
    dse_iterations: int | None = None
    setup_repeats: int = 3
    #: Minimum timed operations of each kind (cold and warm) per run.
    min_ops: int = 3
    min_searches: int = 2
    min_open_passes: int = 2


class Tally:
    """Operations attempted and failed in this run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


class NullTracer:
    """Stand-in for :class:`tracer.SpanRecorder` in untraced runs."""

    @staticmethod
    def span(name: str):
        return nullcontext()


NULL_TRACER = NullTracer()


def base_spec(sizes: Sizes, seed: int | None = None):
    """``ExperimentSpec()`` — optionally with the self-test's smaller sizes."""
    from repro.pipeline import ExperimentSpec

    spec = ExperimentSpec()
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if sizes.model_flows is not None:
        changes["n_flows"] = sizes.model_flows
    if sizes.dse_iterations is not None:
        changes["dse"] = spec.dse.replace(iterations=sizes.dse_iterations)
    return spec.replace(**changes).validate() if changes else spec.validate()


def fresh_view(traffic):
    """A new ``FlowDataset`` over the same flows: its SoA columns are not built yet."""
    from repro.datasets import FlowDataset

    return FlowDataset(
        name=traffic.name,
        description=traffic.description,
        flows=traffic.flows,
        class_names=list(traffic.class_names),
        metadata=dict(traffic.metadata),
    )


# ----------------------------------------------------------------------
# Set-up shared by replay and serve
# ----------------------------------------------------------------------
@dataclass
class TrafficSet:
    """One batch of unseen flows and the reference engine's answer for it."""

    traffic: object
    packets: int
    oracle: ReplayOracle | None = None


@dataclass
class Deployment:
    """A trained, compiled model plus the workload's traffic sets."""

    spec: object
    factory: object
    sets: list
    setup_s: float
    setup_raw_s: float
    traffic_s: float
    builds: int

    @property
    def packets(self) -> int:
        return sum(traffic_set.packets for traffic_set in self.sets)


def traffic_generator(spec, workload_seed: int):
    """Draws unseen flows that share the trained model's class signatures.

    Traffic sets are consecutive ``generate`` calls on it, so the first set
    does not depend on how many follow.
    """
    from repro.datasets import SyntheticTrafficGenerator, get_profile

    return SyntheticTrafficGenerator(
        get_profile(spec.dataset), seed=spec.seed, rng=np.random.default_rng(workload_seed)
    )


def deploy(workload_seed: int, sizes: Sizes, tracer=NULL_TRACER, n_sets: int = 1) -> Deployment:
    """Train, compile and deploy the model ``setup_repeats`` times; draw ``n_sets`` sets.

    ``setup_s`` is the median model build plus ``n_sets`` times the median
    set generation, each build and set normalised by the host speed sampled
    just before it.  The oracle is attached separately
    (:func:`attach_oracle`) so it is never traced or timed.
    """
    from repro.pipeline import Experiment

    spec = base_spec(sizes)
    speed = HostSpeed()
    builds, scaled = [], []
    factory = None
    for _ in range(sizes.setup_repeats):
        slowdown = speed.slowdown_now(3)
        with tracer.span("setup.model"):
            start = perf_counter()
            experiment = Experiment(spec)
            # Stage by stage, so each stage's span holds its own work only.
            experiment.prepare()
            experiment.train()
            experiment.compile()
            experiment.deploy()
            factory = experiment.system.program_factory(
                experiment.train(), experiment.compile(), spec
            )
            builds.append(perf_counter() - start)
        scaled.append(builds[-1] / slowdown)
    generator = traffic_generator(spec, workload_seed)
    sets, generation, scaled_generation = [], [], []
    for _ in range(n_sets):
        slowdown = speed.slowdown_now(3)
        with tracer.span("setup.traffic"):
            start = perf_counter()
            batch = generator.generate(sizes.traffic_flows)
            generation.append(perf_counter() - start)
        scaled_generation.append(generation[-1] / slowdown)
        sets.append(TrafficSet(batch, sum(flow.n_packets for flow in batch.flows)))
    return Deployment(
        spec=spec,
        factory=factory,
        sets=sets,
        setup_s=statistics.median(scaled) + n_sets * statistics.median(scaled_generation),
        setup_raw_s=statistics.median(builds) + sum(generation),
        traffic_s=sum(generation),
        builds=len(builds),
    )


def attach_oracle(deployment: Deployment) -> None:
    """Run the per-packet reference engine once over each traffic set."""
    for traffic_set in deployment.sets:
        traffic_set.oracle = ReplayOracle(deployment.factory, fresh_view(traffic_set.traffic))


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def run_replay(dep: Deployment, seconds: float, sizes: Sizes, tally: Tally,
               tracer=NULL_TRACER) -> dict:
    """Batch replays of each traffic set in turn, a cold op then a warm op.

    A cold op replays through a fresh ``FlowDataset`` (the SoA build and the
    derived caches are paid); a warm op reuses one whose memoised columns an
    untimed warm-up op filled.  Every op builds a fresh program.  Each op
    time is normalised by the calibration sample taken just before it; a
    set's time is the median over its ops, and the rates divide all sets'
    packets by the sum of their times.
    """
    from repro import dataplane

    engine = dep.spec.resolved_engine()
    shared = [fresh_view(traffic_set.traffic) for traffic_set in dep.sets]
    speed = HostSpeed()
    raw = {"cold": [[] for _ in dep.sets], "warm": [[] for _ in dep.sets]}
    scaled = {"cold": [[] for _ in dep.sets], "warm": [[] for _ in dep.sets]}
    recirculations = []
    f1 = []

    def op(kind: str, traffic_set: TrafficSet, dataset) -> float:
        tally.attempted += 1
        with tracer.span(f"op.replay.{kind}"):
            start = perf_counter()
            result = dataplane.replay_dataset(dep.factory(), dataset, engine=engine)
            elapsed = perf_counter() - start
        traffic_set.oracle.check(result.verdicts, result.recirculation, f"replay {kind} op")
        recirculations.append(result.recirculation.get("packets", 0.0))
        if kind == "warmup":
            f1.append(result.report.f1_score)
        return elapsed

    for traffic_set, view in zip(dep.sets, shared):
        op("warmup", traffic_set, view)
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds or rounds < sizes.min_ops * len(dep.sets):
        i = rounds % len(dep.sets)
        traffic_set = dep.sets[i]
        for kind in ("cold", "warm"):
            view = fresh_view(traffic_set.traffic) if kind == "cold" else shared[i]
            slowdown = speed.slowdown_now()
            elapsed = op(kind, traffic_set, view)
            raw[kind][i].append(elapsed)
            scaled[kind][i].append(elapsed / slowdown)
        rounds += 1

    def per_set(times):
        return [statistics.median(samples) for samples in times]

    cold, warm = sum(per_set(scaled["cold"])), sum(per_set(scaled["warm"]))
    raw_cold, raw_warm = sum(per_set(raw["cold"])), sum(per_set(raw["warm"]))
    n_sets = len(dep.sets)
    ops = 2 * rounds
    return {
        "metrics": {
            "rate_per_s": dep.packets / warm,
            "cold_rate_per_s": dep.packets / cold,
            "latency_p50_ms": warm / n_sets * 1e3,
            "latency_tail_ms": cold / n_sets * 1e3,
            "quality_f1": statistics.fmean(f1),
        },
        "slowdown": speed.slowdown(),
        "report": [
            ("replay_cold_pps", dep.packets / raw_cold, "pkt/s",
             f"{rounds} cold ops over {n_sets} traffic sets"),
            ("replay_warm_pps", dep.packets / raw_warm, "pkt/s",
             f"{rounds} warm ops over {n_sets} traffic sets"),
            ("replay_f1", statistics.fmean(f1), "F1",
             "mean over the traffic sets, equal to the reference engine's"),
        ],
        "ops": ops,
        "extras": {
            "switch.recirculations": statistics.median(recirculations),
        },
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _open_engine(dep: Deployment):
    from repro.serve import create_engine

    serve = dep.spec.serve
    engine = create_engine(
        dep.factory,
        engine=serve.engine,
        shards=serve.shards,
        workers=serve.workers,
        spawn_method=serve.spawn_method,
        transport=serve.transport,
        ring_slots=serve.ring_slots,
        chunk_size=serve.chunk_size,
        backpressure=serve.backpressure,
    )
    return engine.open()


def _finish(dep: Deployment, engine, what: str) -> tuple[float, float]:
    """Check a drained engine against the oracle and close it.

    Returns the F1 of its verdicts and its recirculated packet count.
    """
    recirculation = engine.recirculation_stats()
    dep.sets[0].oracle.check(engine.verdicts(), recirculation, what)
    return engine.close().report.f1_score, recirculation.get("packets", 0.0)


def deciding_chunks(soa, oracle: ReplayOracle, chunk_size: int) -> dict[int, int]:
    """Per decided flow: index of the chunk carrying its deciding packet.

    The deciding packet is the flow's first packet whose timestamp equals
    the oracle's ``decided_at``.
    """
    rank = np.empty(soa.n_packets, dtype=np.int64)
    rank[soa.interleave_order] = np.arange(soa.n_packets, dtype=np.int64)
    index_of = {int(flow_id): i for i, flow_id in enumerate(soa.flow_ids)}
    chunks = {}
    for flow_id, (_, decided_at, _) in oracle.verdicts.items():
        i = index_of[flow_id]
        start, stop = int(soa.flow_starts[i]), int(soa.flow_starts[i + 1])
        hits = np.flatnonzero(soa.timestamps[start:stop] == decided_at)
        if hits.size == 0:
            raise BenchmarkError(f"flow {flow_id}: no packet at decided_at={decided_at}")
        chunks[flow_id] = int(rank[start + hits[0]]) // chunk_size
    return chunks


def closed_session(dep: Deployment, soa, tally: Tally, tracer=NULL_TRACER,
                   watch_buffer: bool = False) -> dict:
    """Stream every chunk back to back, polling verdicts after each ingest.

    ``soa=None`` makes the session cold: the chunk iterator builds the SoA
    columns itself.  ``watch_buffer`` (traced runs only) also polls
    ``stats().buffered_packets``; that poll is timed and left out of
    ``elapsed``.
    """
    from repro import datasets

    tally.attempted += 1
    kind = "cold" if soa is None else "warm"
    peak = 0
    watch_s = 0.0
    with tracer.span(f"op.serve.{kind}"):
        start = perf_counter()
        engine = _open_engine(dep)
        for chunk in datasets.iter_packet_chunks(
            dep.sets[0].traffic.flows, dep.spec.serve.chunk_size, soa=soa
        ):
            engine.ingest(chunk)
            len(engine.verdicts())
            if watch_buffer:
                probe = perf_counter()
                peak = max(peak, engine.stats().buffered_packets)
                watch_s += perf_counter() - probe
        engine.drain()
        elapsed = perf_counter() - start - watch_s
    f1, recirculations = _finish(dep, engine, f"serve closed-loop {kind} session")
    return {"elapsed": elapsed, "f1": f1, "buffered_peak": peak,
            "recirculations": recirculations}


def open_loop_pass(dep: Deployment, soa, rate: float, deciding: dict[int, int],
                   tally: Tally) -> dict:
    """Send the chunks on a fixed schedule at ``rate`` packets per second.

    Every chunk is timed from its due time, so a stall also delays the
    chunks behind it.  A flow's verdict latency runs from the due time of
    the chunk carrying its deciding packet to the end of the first
    ``ingest``/``drain`` after which it appears in ``verdicts()``.
    """
    from repro import datasets

    tally.attempted += 1
    chunks = list(datasets.iter_packet_chunks(
        dep.sets[0].traffic.flows, dep.spec.serve.chunk_size, soa=soa
    ))
    sizes = np.array([chunk.n_packets for chunk in chunks], dtype=np.float64)
    offsets = np.concatenate(([0.0], np.cumsum(sizes)[:-1])) / rate
    chunk_ms, late_ms, verdict_ms = [], [], []
    seen: set[int] = set()
    engine = _open_engine(dep)
    due_times = (perf_counter() + offsets).tolist()

    def collect(done: float) -> None:
        verdicts = engine.verdicts()
        fresh = len(verdicts) - len(seen)
        if fresh <= 0:
            return
        for flow_id in reversed(verdicts):
            if flow_id in seen:
                continue
            seen.add(flow_id)
            verdict_ms.append((done - due_times[deciding[flow_id]]) * 1e3)
            fresh -= 1
            if not fresh:
                break

    for due, chunk in zip(due_times, chunks):
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        sent = perf_counter()
        late_ms.append((sent - due) * 1e3)
        engine.ingest(chunk)
        done = perf_counter()
        chunk_ms.append((done - due) * 1e3)
        collect(done)
    engine.drain()
    collect(perf_counter())
    f1, _ = _finish(dep, engine, "serve open-loop pass")
    return {"chunk_ms": chunk_ms, "late_ms": late_ms, "verdict_ms": verdict_ms, "f1": f1}


def run_serve(dep: Deployment, seconds: float, rate: float, sizes: Sizes, tally: Tally,
              tracer=NULL_TRACER, open_loop: bool = True, watch_buffer: bool = False) -> dict:
    """Closed-loop sessions for half the budget, then open-loop passes at ``rate``.

    Closed-loop sessions alternate cold (SoA built by the chunk iterator)
    and warm (shared SoA columns, filled by an untimed warm-up session).
    """
    soa = fresh_view(dep.sets[0].traffic).packet_arrays()
    closed_session(dep, soa, tally)  # warm-up: fills the shared columns' caches
    speed = HostSpeed()
    times: dict[str, list[float]] = {"cold": [], "warm": []}
    f1 = 0.0
    peak = 0
    recirculations = []
    start = perf_counter()
    closed_budget = seconds / 2 if open_loop else seconds
    while (perf_counter() - start < closed_budget
           or min(map(len, times.values())) < sizes.min_ops):
        for kind, source in (("cold", None), ("warm", soa)):
            speed.sample(2)
            session = closed_session(dep, source, tally, tracer, watch_buffer)
            times[kind].append(session["elapsed"])
            f1 = session["f1"]
            peak = max(peak, session["buffered_peak"])
            recirculations.append(session["recirculations"])

    speed.sample(2)
    warm = statistics.median(times["warm"])
    cold = statistics.median(times["cold"])
    slowdown = speed.slowdown()
    out = {
        "metrics": {
            "rate_per_s": dep.sets[0].packets / warm * slowdown,
            "cold_rate_per_s": dep.sets[0].packets / cold * slowdown,
            "quality_f1": f1,
        },
        "slowdown": slowdown,
        "report": [
            ("serve_pps", dep.sets[0].packets / warm, "pkt/s",
             f"closed loop incl. drain, median of {len(times['warm'])} sessions"),
            ("serve_cold_pps", dep.sets[0].packets / cold, "pkt/s",
             f"closed loop, SoA built per session, median of {len(times['cold'])} sessions"),
        ],
        "ops": len(times["cold"]) + len(times["warm"]),
        "extras": {
            "serve.buffered_peak": float(peak),
            "switch.recirculations": statistics.median(recirculations),
        },
    }
    if not open_loop:
        return out

    deciding = deciding_chunks(soa, dep.sets[0].oracle, dep.spec.serve.chunk_size)
    chunk_ms, late_ms, verdict_ms = [], [], []
    passes = 0
    while perf_counter() - start < seconds or passes < sizes.min_open_passes:
        result = open_loop_pass(dep, soa, rate, deciding, tally)
        chunk_ms += result["chunk_ms"]
        late_ms += result["late_ms"]
        verdict_ms += result["verdict_ms"]
        passes += 1
    chunk, late, verdict = summarize(chunk_ms), summarize(late_ms), summarize(verdict_ms)
    out["metrics"]["latency_p50_ms"] = verdict["p50"]
    out["metrics"]["latency_tail_ms"] = verdict["tail"]
    out["report"] += [
        ("serve_chunk_p50_ms", chunk["p50"], "ms", f"{chunk['n']} chunks at R={rate:g} pkt/s"),
        (f"serve_chunk_p{chunk['tail_pct']:g}_ms", chunk["tail"], "ms", f"{chunk['n']} chunks"),
        ("serve_verdict_p50_ms", verdict["p50"], "ms", f"{verdict['n']} decided flows"),
        (f"serve_verdict_p{verdict['tail_pct']:g}_ms", verdict["tail"], "ms",
         f"{verdict['n']} decided flows"),
        (f"loadgen_late_p{late['tail_pct']:g}_ms", late["tail"], "ms", f"{passes} passes"),
    ]
    out["extras"].update({
        "serve.chunk_p50_ms": chunk["p50"],
        "serve.chunk_tail_ms": chunk["tail"],
        "loadgen.late_p99_ms": late["tail"],
    })
    out["samples"] = {"chunks": chunk, "verdicts": verdict, "lateness": late}
    return out


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------
def dse_setup(sizes: Sizes) -> float:
    """Seconds for a fresh interpreter to import the DSE entry points.

    The median of ``setup_repeats`` imports, normalised by the host speed.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import repro.pipeline, repro.core.dse, repro.datasets"
    )
    env = {key: value for key, value in os.environ.items() if key not in ISOLATED_ENV}
    speed = HostSpeed()
    times = []
    for _ in range(sizes.setup_repeats):
        speed.sample(3)
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    speed.sample(3)
    return statistics.median(times) / speed.slowdown()


def run_dse(seed: int, seconds: float, sizes: Sizes, tally: Tally,
            tracer=NULL_TRACER) -> dict:
    """Repeated design searches at spec defaults with ``seed`` = the workload seed.

    A cold search starts from the spec (dataset generation included, the
    ``dse_s`` of ``python -m repro dse``); its warm part starts from the
    generated dataset.  Repeats must reproduce the first search exactly.

    A search is driven one optimiser batch per ``run`` call so the host
    speed can be sampled between batches (a search lasts several seconds,
    longer than the host holds one speed); each search is normalised by the
    median of the samples taken during it.  ``run`` keeps the optimiser and
    the history on the search object, so the calls ask and tell exactly
    what one ``run(iterations, batch_size=...)`` call does.
    """
    from repro import datasets
    from repro.core import dse as core_dse

    spec = base_spec(sizes, seed=seed)
    config = spec.dse
    speed = HostSpeed()
    raw = {"cold": [], "warm": []}
    scaled = {"cold": [], "warm": []}
    first = None
    best = None
    result = None
    start = perf_counter()
    while perf_counter() - start < seconds or len(raw["cold"]) < sizes.min_searches:
        tally.attempted += 1
        with tracer.span("op.dse"):
            first_sample = len(speed.samples)
            speed.sample(2)
            began = perf_counter()
            dataset = datasets.load_dataset(spec.dataset, n_flows=spec.n_flows, seed=spec.seed)
            generate_s = perf_counter() - began
            speed.sample(2)
            began = perf_counter()
            store = datasets.DatasetStore(
                dataset, test_size=spec.test_size, random_state=spec.seed
            )
            search = core_dse.DesignSearch(
                store,
                target=spec.target_spec(),
                depth_range=config.depth_range,
                k_range=config.k_range,
                partitions_range=config.partitions_range,
                bit_width=spec.bit_width,
                seed=spec.seed,
                workers=config.workers,
                affinity=config.affinity,
            )
            search_s = perf_counter() - began
            with search:
                done = 0
                while done < config.iterations:
                    step = min(config.batch_size, config.iterations - done)
                    speed.sample(2)
                    began = perf_counter()
                    result = search.run(step, batch_size=config.batch_size,
                                        method=config.method)
                    search_s += perf_counter() - began
                    done += step
            began = perf_counter()
            result.pareto_candidates()
            search_s += perf_counter() - began
        slowdown = speed.slowdown(since=first_sample)
        raw["warm"].append(search_s)
        raw["cold"].append(generate_s + search_s)
        scaled["warm"].append(search_s / slowdown)
        scaled["cold"].append((generate_s + search_s) / slowdown)
        best = check_search(result, dataset, spec, config.iterations)
        digest = history_digest(result)
        if first is None:
            first = digest
        elif digest != first:
            raise OutputMismatch("dse: a repeated search with the same seed diverged")

    n = len(result.history)
    cold_s, warm_s = statistics.median(scaled["cold"]), statistics.median(scaled["warm"])
    searches = len(raw["cold"])
    return {
        "metrics": {
            "rate_per_s": n / warm_s,
            "cold_rate_per_s": n / cold_s,
            "latency_p50_ms": warm_s * 1e3,
            "latency_tail_ms": cold_s * 1e3,
            "quality_f1": best.f1_score,
        },
        "slowdown": speed.slowdown(),
        "report": [
            ("dse_s", statistics.median(raw["cold"]), "s",
             f"spec to Pareto front, median of {searches} searches"),
            ("dse_search_s", statistics.median(raw["warm"]), "s",
             "generated dataset to Pareto front"),
            ("dse_best_f1", best.f1_score, "F1",
             f"best at 100k flows: depth={best.config.depth} k={best.config.features_per_subtree} "
             f"partitions={best.config.partition_sizes}"),
        ],
        "ops": searches,
        "extras": {
            "dse.candidates": float(n),
            "dse.feasible_share": sum(c.max_flows > 0 for c in result.history) / n,
            "dse.unique_share": len({id(c) for c in result.history}) / n,
        },
    }
