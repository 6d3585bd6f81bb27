"""Output checks: every timed operation is compared with an independent answer.

* Replay and serve verdicts are compared with the per-packet reference
  engine (the spec of the data plane), run once per process on the very same
  flows: per flow ``(label, decided_at, n_recirculations)`` plus the
  program's ``recirculation_stats()``.
* A design search must evaluate every candidate it was asked for, produce a
  non-empty Pareto front, and its best candidate at 100k flows must
  re-evaluate bit for bit on a fresh store built from the same dataset.
"""

from __future__ import annotations

from harness import OutputMismatch

#: Flow count at which the DSE's best candidate is chosen and re-checked.
BEST_AT_FLOWS = 100_000

#: How many differing flows a mismatch report lists.
_REPORTED = 5


def verdict_digest(verdicts: dict) -> dict[int, tuple]:
    """The compared fields of every verdict, keyed by flow id."""
    return {
        flow_id: (verdict.label, verdict.decided_at, verdict.n_recirculations)
        for flow_id, verdict in verdicts.items()
    }


class ReplayOracle:
    """Reference-engine answer for one deployment and one set of flows."""

    def __init__(self, factory, traffic) -> None:
        from repro.dataplane import replay_dataset

        result = replay_dataset(factory(), traffic, engine="reference")
        self.verdicts = verdict_digest(result.verdicts)
        self.recirculation = dict(result.recirculation)
        self.f1 = result.report.f1_score

    def check(self, verdicts: dict, recirculation: dict, what: str) -> None:
        """Raise :class:`OutputMismatch` unless the output equals the oracle's."""
        got = verdict_digest(verdicts)
        problems = []
        missing = sorted(set(self.verdicts) - set(got))
        extra = sorted(set(got) - set(self.verdicts))
        if missing:
            problems.append(f"{len(missing)} flows undecided, e.g. {missing[:_REPORTED]}")
        if extra:
            problems.append(f"{len(extra)} flows decided only here, e.g. {extra[:_REPORTED]}")
        differing = [
            flow_id for flow_id, fields in self.verdicts.items()
            if flow_id in got and got[flow_id] != fields
        ]
        if differing:
            shown = ", ".join(
                f"flow {flow_id}: {got[flow_id]} != {self.verdicts[flow_id]}"
                for flow_id in differing[:_REPORTED]
            )
            problems.append(f"{len(differing)} verdicts differ ({shown})")
        if dict(recirculation) != self.recirculation:
            problems.append(
                f"recirculation_stats {dict(recirculation)} != {self.recirculation}"
            )
        if problems:
            raise OutputMismatch(f"{what}: " + "; ".join(problems))


def history_digest(result) -> list[tuple]:
    """What a search decided, candidate by candidate (for repeat comparisons)."""
    return [
        (
            candidate.config.depth,
            candidate.config.features_per_subtree,
            candidate.config.partition_sizes,
            candidate.f1_score,
            candidate.max_flows,
        )
        for candidate in result.history
    ]


def check_search(result, dataset, spec, n_candidates: int):
    """Check one design search; returns its best candidate at 100k flows."""
    from repro.core.dse import evaluate_configuration
    from repro.datasets import DatasetStore

    if len(result.history) != n_candidates:
        raise OutputMismatch(
            f"dse: history holds {len(result.history)} candidates, asked for {n_candidates}"
        )
    if not result.pareto_candidates():
        raise OutputMismatch("dse: empty Pareto front")
    best = result.best_at_flows(BEST_AT_FLOWS)
    if best is None:
        raise OutputMismatch(f"dse: no candidate is feasible at {BEST_AT_FLOWS} flows")
    store = DatasetStore(dataset, test_size=spec.test_size, random_state=spec.seed)
    again = evaluate_configuration(
        store, best.config, target=spec.target_spec(), random_state=spec.seed
    )
    searched = (best.f1_score, best.rules.n_entries, best.max_flows)
    rechecked = (again.f1_score, again.rules.n_entries, again.max_flows)
    if searched != rechecked:
        raise OutputMismatch(
            f"dse: best candidate {best.config} (f1, rule entries, max_flows) "
            f"{searched} != re-evaluation {rechecked}"
        )
    return best
