"""Self-test of the benchmark (tiny sizes, about a minute).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

It proves the benchmark emits exactly the metric names ``BENCHMARK.json``
declares, that its output checks are not vacuous (a flipped verdict label or
a perturbed DSE candidate fails the run), that the traced run restores every
probe, and that the command refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import harness

harness.prepare_import()

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    traffic_flows=120,
    traffic_sets=2,
    model_flows=100,
    dse_iterations=4,
    setup_repeats=1,
    min_ops=1,
    min_searches=1,
    min_open_passes=1,
)
SECONDS = 0.01
RATE = 200_000.0


#: Per-layer metrics only the undeclared ``serve`` workload measures.
SERVE_ONLY = {
    "datasets.chunk_s", "serve.ingest_s", "serve.ingest_calls", "serve.drain_s",
    "serve.verdicts_poll_s", "serve.flushes", "serve.flows_per_flush",
    "serve.buffered_peak", "serve.chunk_p50_ms", "serve.chunk_tail_ms",
    "loadgen.late_p99_ms",
}


def _measure(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """The JSON line and the undeclared metrics of one tiny run."""
    tally = workloads.Tally()
    declaration = harness.load_declaration()
    outcome = run.run_workload(workload, seed, SECONDS, trace, RATE, TINY, tally)
    line = run.result_line(declaration, outcome["metrics"], trace, tally)
    return line, run.undeclared(declaration, outcome["metrics"], trace)


def _declared(kind: str) -> list[str]:
    return [entry["name"] for entry in harness.load_declaration()[kind]]


def test_declared_workloads_are_the_runnable_ones_but_serve():
    declared = [entry["name"] for entry in harness.load_declaration()["workloads"]]
    assert declared == [name for name in run.WORKLOADS if name != "serve"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_declared_end_to_end_metrics(workload):
    line, extra = _measure(workload, seed=3, trace=False)
    assert list(line["metrics"]) == _declared("end_to_end")
    assert extra == {}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_declared_layer_metrics_and_restores_probes(workload):
    before = _probe_targets()
    line, extra = _measure(workload, seed=4, trace=True)
    assert list(line["metrics"]) == _declared("per_layer")
    assert set(extra) == (SERVE_ONLY if workload == "serve" else set())
    assert line["correct"]
    assert _probe_targets() == before


def _probe_targets() -> list:
    import importlib

    targets = []
    for module_name, owner_name, attr, *_ in tracer.PROBES:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        targets.append(vars(owner).get(attr))
    return targets


@pytest.fixture(scope="module")
def tiny_deployment():
    dep = workloads.deploy(5, TINY, n_sets=TINY.traffic_sets)
    workloads.attach_oracle(dep)
    return dep


def test_flipped_verdict_label_fails_replay(tiny_deployment, monkeypatch):
    from repro import dataplane

    real = dataplane.replay_dataset

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        flow_id = next(iter(result.verdicts))
        verdict = result.verdicts[flow_id]
        result.verdicts[flow_id] = dataclasses.replace(verdict, label=verdict.label + 1)
        return result

    monkeypatch.setattr(dataplane, "replay_dataset", corrupted)
    with pytest.raises(harness.OutputMismatch, match="verdicts differ"):
        workloads.run_replay(tiny_deployment, SECONDS, TINY, workloads.Tally())


def test_flipped_verdict_label_fails_serve(tiny_deployment, monkeypatch):
    from repro.serve import engine as serve_engine

    real = serve_engine.InferenceEngine.verdicts

    def corrupted(self):
        verdicts = dict(real(self))
        if self._state == "drained" and verdicts:
            flow_id = next(iter(verdicts))
            verdict = verdicts[flow_id]
            verdicts[flow_id] = dataclasses.replace(verdict, label=verdict.label + 1)
        return verdicts

    monkeypatch.setattr(serve_engine.InferenceEngine, "verdicts", corrupted)
    with pytest.raises(harness.OutputMismatch, match="verdicts differ"):
        workloads.run_serve(tiny_deployment, SECONDS, RATE, TINY, workloads.Tally())


def test_unchanged_outputs_pass_the_oracle(tiny_deployment):
    tally = workloads.Tally()
    out = workloads.run_replay(tiny_deployment, SECONDS, TINY, tally)
    oracle_f1 = [traffic_set.oracle.f1 for traffic_set in tiny_deployment.sets]
    assert out["metrics"]["quality_f1"] == pytest.approx(sum(oracle_f1) / len(oracle_f1))
    assert tally.attempted >= 3 * len(oracle_f1)


def test_perturbed_candidate_f1_fails_dse(monkeypatch):
    from repro.core import dse as core_dse

    real = core_dse.DesignSearch.run

    def perturbed(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        best = result.best_at_flows(oracle.BEST_AT_FLOWS)
        best.report.f1_score += 1e-9
        return result

    monkeypatch.setattr(core_dse.DesignSearch, "run", perturbed)
    with pytest.raises(harness.OutputMismatch, match="re-evaluation"):
        workloads.run_dse(6, SECONDS, TINY, workloads.Tally())


def test_batch_by_batch_search_equals_one_run():
    from repro import datasets
    from repro.core import dse as core_dse

    dataset = datasets.load_dataset("D3", n_flows=100, seed=8)

    def search():
        return core_dse.DesignSearch(datasets.DatasetStore(dataset), seed=8, workers=0)

    whole = search().run(6, batch_size=2)
    stepped = search()
    for _ in range(3):
        parts = stepped.run(2, batch_size=2)
    assert oracle.history_digest(parts) == oracle.history_digest(whole)


def test_output_mismatch_exits_one_with_correct_false(monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise harness.OutputMismatch("forced")

    monkeypatch.setattr(run, "run_workload", mismatch)
    assert run.main(["--workload", "replay", "--seed", "1"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.DECLARATION, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    recorder = tracer.SpanRecorder()
    with recorder.span("op.replay.warm"):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            recorder.leaf("leaf", 0.0, 0.5, 1)
            recorder.leaf("leaf", 1.0, 1.25, 1)
    totals = recorder.layer_totals(("op.replay.warm",))
    outer, inner, leaf = totals["outer"], totals["inner"], totals["leaf"]
    assert leaf["calls"] == 2 and leaf["total_s"] == pytest.approx(0.75)
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"] - leaf["total_s"]
    )
    assert recorder.layer_totals(("setup.model",)) == {}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(836) == 98.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(39) is None
