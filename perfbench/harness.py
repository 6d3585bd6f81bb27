"""Shared plumbing of the benchmark: paths, declaration, statistics, host facts.

Nothing here imports ``repro``; :func:`prepare_import` must run first so the
checkout's own ``src/`` is the package that gets measured.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: Root of the checkout (the directory that holds ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
#: Where traced runs write their spans (inside the checkout, git-ignored).
TRACE_DIR = ROOT / ".perfbench"

#: Environment knobs that would change what is measured.  They are cleared
#: before ``repro`` is imported so every run measures the spec defaults.
ISOLATED_ENV = (
    "SPLIDT_REPLAY_ENGINE",
    "SPLIDT_DSE_WORKERS",
    "SPLIDT_SERVE_TRANSPORT",
    "SPLIDT_AFFINITY",
)

#: Calibration job time (:class:`HostSpeed`) on the reference host: the
#: 2-core x86-64 VM without Numba the benchmark was tuned on.  Normalised
#: figures read as if measured there.
CALIBRATION_REFERENCE_S = 0.03

#: Percentiles a tail may be reported at, highest first.
_TAIL_GRID = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run (missing sources, bad arguments)."""


class OutputMismatch(AssertionError):
    """An operation's output differs from the oracle."""


def prepare_import() -> None:
    """Clear the isolated knobs and put the checkout's ``src/`` first on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {SRC}; run from a full checkout")
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_declaration() -> dict:
    """The parsed ``BENCHMARK.json`` (metric names and units live there)."""
    with DECLARATION.open() as handle:
        return json.load(handle)


def declared_rate(declaration: dict) -> float:
    """The open-loop offered rate R, read from the declared ``--rate`` argument."""
    command = declaration["command"]
    try:
        return float(command[command.index("--rate") + 1])
    except (ValueError, IndexError) as exc:
        raise BenchmarkError("BENCHMARK.json command must carry '--rate <pkt/s>'") from exc


def tail_percentile(n_samples: int) -> float | None:
    """The highest grid percentile with at least ten samples beyond it."""
    for q in _TAIL_GRID:
        if n_samples * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def summarize(samples) -> dict:
    """Median, tail (highest percentile with >= 10 samples beyond) and count."""
    import numpy

    samples = list(samples)
    q = tail_percentile(len(samples))
    return {
        "p50": statistics.median(samples),
        "tail": float(numpy.percentile(samples, q)) if q is not None else None,
        "tail_pct": q,
        "n": len(samples),
    }


class _FlowState:
    """Per-key running state for the calibration job's per-packet loop."""

    __slots__ = ("packets", "size_sum", "last")

    def __init__(self) -> None:
        self.packets = 0
        self.size_sum = 0.0
        self.last = 0.0

    def update(self, timestamp: float, size: int) -> float:
        self.packets += 1
        self.size_sum += size
        gap = timestamp - self.last
        self.last = timestamp
        return gap


class HostSpeed:
    """Speed of the host while a phase runs, from a fixed calibration job.

    The job uses no ``repro`` code, so no change to the program can move
    it.  It mixes the kinds of work the workloads do: interpreter loops and
    small NumPy calls, Python objects in dicts, per-packet method calls on
    small stateful objects, and cache-missing gathers over a 32 MB array.
    It is sampled between the operations of a phase; a median sample over
    :data:`CALIBRATION_REFERENCE_S` is the slowdown against the reference
    host.  Shared hosts drift in speed by tens of percent over seconds, so
    an operation is divided by the slowdown sampled just before it (replay
    ops, set-up steps) or over its own span (a design search).
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._small = rng.random(256)
        self._bounds = numpy.sort(rng.random(64))
        self._large = rng.random(50_000)
        self._big = rng.random(4_000_000)
        self._gather = rng.integers(0, self._big.size, 400_000)
        self._objects = [(i, float(i), str(i)) for i in range(20_000)]
        self._packets = [(i * 0.01, 60 + i % 1400, i % 7) for i in range(15_000)]
        self.samples: list[float] = []

    def _job(self) -> float:
        import numpy

        total = 0.0
        for i in range(60_000):
            total += i * i
        numpy.sort(self._large)
        for _ in range(600):
            total += int(numpy.searchsorted(self._bounds, self._small * 2.0).sum())
        table = {}
        for number, value, key in self._objects:
            table[key] = (number, value)
        for _, _, key in self._objects:
            total += table[key][1]
        states: dict[int, _FlowState] = {}
        for timestamp, size, flags in self._packets:
            state = states.get(flags)
            if state is None:
                state = states[flags] = _FlowState()
            total += state.update(timestamp, size)
        total += float(self._big[self._gather].sum())
        return total + float(self._big[self._gather[::-1]].sum())

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            self._job()
            self.samples.append(perf_counter() - start)

    def slowdown_now(self, times: int = 1) -> float:
        """Sample ``times`` more jobs and return their slowdown."""
        self.sample(times)
        return self.slowdown(since=len(self.samples) - times)

    def slowdown(self, since: int = 0) -> float:
        """Median calibration time over the reference time (> 1: slower host).

        ``since`` skips the samples taken before that index.
        """
        return statistics.median(self.samples[since:]) / CALIBRATION_REFERENCE_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    """Facts about the host and toolchain that change what the numbers mean."""
    import importlib.util

    import numpy

    from repro.dataplane import kernels

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.backend(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
