"""Shared-memory construction and lifetime for named NumPy arrays.

The process-sharded serving engine (:mod:`repro.serve.process_sharded`)
ships packets to worker *processes*.  Pickling per-chunk packet payloads
through a queue would copy every column on every chunk; instead the
:class:`PacketArrays` columns (:func:`packet_columns`) are placed once into
a single :class:`multiprocessing.shared_memory.SharedMemory` segment by a
:class:`SharedArrayBundle`, and workers attach **zero-copy NumPy views**
over the same pages and rebuild ``PacketArrays(**bundle.arrays)``.
Per-chunk messages then carry only packet *positions* (a few bytes per
packet), exactly like the in-process
:class:`~repro.datasets.streams.PacketChunk` contract.  The parallel DSE
pool shares its training matrices the same way.

Lifetime discipline (who may do what):

* the **owner** (the process that called :meth:`SharedArrayBundle.create`)
  is the only one allowed to :meth:`~SharedArrayBundle.unlink` the segment —
  doing so removes the backing file under ``/dev/shm`` once every attached
  process has also closed its mapping;
* **attachers** (:meth:`SharedArrayBundle.attach`) only ever
  :meth:`~SharedArrayBundle.close` their mapping — never unlink; the shared
  :mod:`multiprocessing.resource_tracker` keeps exactly one registration
  per name, released by the owner's unlink (and reclaimed by the tracker
  itself if the owner is killed before it can clean up);
* both operations are idempotent, so crash-path cleanup can call them
  unconditionally.

Segments are named ``splidt-soa-<pid>-<nonce>`` so an operator can spot an
orphaned segment in ``/dev/shm`` at a glance (see ``docs/performance.md``
for the operations notes).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, fields
from multiprocessing import shared_memory

import numpy as np

from repro.datasets.flows import Packet, PacketArrays

#: Byte alignment of every column inside the segment (cache-line friendly).
_ALIGN = 64

#: Default prefix of the segments created by :meth:`SharedArrayBundle.create`.
SEGMENT_PREFIX = "splidt-soa"

#: Mount point backing POSIX shared memory on Linux.
SHM_MOUNT = "/dev/shm"


class SharedMemoryCapacityError(MemoryError):
    """Raised when a segment would not fit the shared-memory mount.

    Subclasses :class:`MemoryError` so generic out-of-memory handling still
    catches it, while carrying the sizes a caller needs to act (shrink the
    workload, switch to the streamed source, or mount a bigger tmpfs).
    """

    def __init__(self, requested: int, available: int) -> None:
        self.requested = requested
        self.available = available
        super().__init__(
            f"shared-memory segment of {requested:,} bytes exceeds the "
            f"{available:,} bytes available under {SHM_MOUNT}; shrink the "
            f"workload, free segments (ls {SHM_MOUNT}), or replay out-of-core "
            f"via repro.datasets.streams.StreamedPacketWriter instead"
        )


def _shm_bytes_available() -> int | None:
    """Free bytes on the shared-memory mount, or ``None`` when unknowable."""
    try:
        stats = os.statvfs(SHM_MOUNT)
    except OSError:  # non-Linux or exotic container: skip the preflight
        return None
    return stats.f_bavail * stats.f_frsize


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def create_segment(size: int, *, prefix: str = SEGMENT_PREFIX) -> shared_memory.SharedMemory:
    """Allocate a fresh named segment with capacity preflight and a nonce name.

    Shared by :meth:`SharedArrayBundle.create` and the serve-path ring
    buffers (:mod:`repro.serve.ring`): the requested size is checked against
    the free space under ``/dev/shm`` first (raising
    :class:`SharedMemoryCapacityError` with both sizes), and the
    ``<prefix>-<pid>-<nonce>`` name is retried on the astronomically rare
    nonce collision.
    """
    size = max(int(size), 1)
    available = _shm_bytes_available()
    if available is not None and size > available:
        raise SharedMemoryCapacityError(size, available)
    for _ in range(16):
        name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - nonce collision
            continue
    raise RuntimeError("could not allocate a shared-memory segment name")


class SharedFlowView:
    """A :class:`~repro.datasets.flows.Flow` facade over shared packet columns.

    Shipping real ``Flow`` objects to worker processes pickles every
    ``Packet`` — megabytes per worker for data that already sits in the
    shared segment.  This view carries only the per-flow metadata (the
    five-tuple, label, class name, flow id) and materialises its ``packets``
    list lazily from the SoA columns on first access, so the common batched
    path (which reads packets straight from the arrays) never pays for
    object construction; only the scalar collision/prefix path and the
    per-packet streaming engine touch ``packets``.

    Reconstruction is exact: the SoA columns hold every ``Packet`` field
    bit-for-bit (sizes/payloads are integer-valued floats), so replaying
    through rebuilt packets is bit-identical to replaying the originals.
    """

    __slots__ = ("five_tuple", "label", "class_name", "flow_id", "_soa", "_index", "_packets")

    def __init__(self, five_tuple, label, class_name, flow_id, soa, index) -> None:
        self.five_tuple = five_tuple
        self.label = label
        self.class_name = class_name
        self.flow_id = flow_id
        self._soa = soa
        self._index = index
        self._packets: list[Packet] | None = None

    @property
    def packets(self) -> list[Packet]:
        if self._packets is None:
            soa = self._soa
            start = int(soa.flow_starts[self._index])
            stop = int(soa.flow_starts[self._index + 1])
            self._packets = [
                Packet(
                    timestamp=float(soa.timestamps[j]),
                    size=int(soa.sizes[j]),
                    flags=int(soa.flags[j]),
                    direction=int(soa.directions[j]),
                    payload=int(soa.payloads[j]),
                )
                for j in range(start, stop)
            ]
        return self._packets

    @property
    def n_packets(self) -> int:
        return int(self._soa.n_packets_per_flow[self._index])

    @property
    def n_bytes(self) -> int:
        soa = self._soa
        start, stop = int(soa.flow_starts[self._index]), int(soa.flow_starts[self._index + 1])
        return int(soa.sizes[start:stop].sum())

    @property
    def duration(self) -> float:
        if self.n_packets < 2:
            return 0.0
        soa = self._soa
        start, stop = int(soa.flow_starts[self._index]), int(soa.flow_starts[self._index + 1])
        return float(soa.timestamps[stop - 1] - soa.timestamps[start])


def flow_meta(flows) -> list[tuple]:
    """The small picklable payload standing in for a worker's flow list."""
    return [(f.five_tuple, f.label, f.class_name, f.flow_id) for f in flows]


def flows_from_meta(meta: list[tuple], soa: PacketArrays) -> list[SharedFlowView]:
    """Rebuild a flow list from :func:`flow_meta` over an attached segment."""
    return [
        SharedFlowView(five_tuple, label, class_name, flow_id, soa, index)
        for index, (five_tuple, label, class_name, flow_id) in enumerate(meta)
    ]


def packet_columns(soa: PacketArrays) -> dict[str, np.ndarray]:
    """The columns of ``soa`` that a :class:`SharedArrayBundle` shares.

    These are the ``PacketArrays`` init fields, so an attacher rebuilds the
    arrays with ``PacketArrays(**bundle.arrays)``.  Process-local caches
    (e.g. the derived-column dict) are not columns; each process rebuilds
    its own.
    """
    return {
        field_.name: getattr(soa, field_.name)
        for field_ in fields(PacketArrays)
        if field_.init
    }


@dataclass(frozen=True)
class ColumnSpec:
    """Location of one shared array inside the segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedArraysLayout:
    """Picklable description of a shared segment: its name plus column map.

    This is the only thing that crosses the process boundary — a worker
    rebuilds every array from it with :meth:`SharedArrayBundle.attach`
    without copying any data.
    """

    segment: str
    size: int
    columns: tuple[ColumnSpec, ...]


class SharedArrayBundle:
    """A named dict of NumPy arrays living in one shared-memory segment.

    The process-sharded serve engine shares :func:`packet_columns` through
    it; the parallel DSE pool places a
    :class:`~repro.datasets.materialize.WindowedDataset`'s arrays into
    shared memory once, so every evaluator worker attaches zero-copy views
    instead of re-pickling the training matrices per candidate.

    Lifetime: the owner unlinks, attachers only close, both idempotent (see
    the module docstring).  Segments are named ``<prefix>-<pid>-<nonce>``;
    the DSE pool passes ``prefix="splidt-dse"`` so its segments are
    distinguishable from the serve path's ``splidt-soa``/``splidt-ring``
    under ``/dev/shm``.

    Example::

        >>> bundle = SharedArrayBundle.create({"x": x, "y": y})
        >>> layout = bundle.layout             # picklable; send to workers
        >>> view = SharedArrayBundle.attach(layout)  # in another process
        >>> bool((view.arrays["x"] == x).all())
        True
        >>> view.close(); bundle.unlink(); bundle.close()
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        arrays: dict[str, np.ndarray],
        layout: SharedArraysLayout,
        *,
        owner: bool,
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self._arrays: dict[str, np.ndarray] | None = arrays
        self.layout = layout
        self.owner = owner
        self._unlinked = False

    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray], *, prefix: str = SEGMENT_PREFIX
    ) -> "SharedArrayBundle":
        """Copy ``arrays`` into a fresh segment (caller becomes owner).

        The requested size is validated against the free space under
        ``/dev/shm`` first: an oversized workload raises
        :class:`SharedMemoryCapacityError` up front (naming the two sizes)
        instead of surfacing as a raw ``OSError`` mid-copy.
        """
        columns: list[ColumnSpec] = []
        offset = 0
        source: dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            column = np.ascontiguousarray(array)
            offset = _align(offset)
            columns.append(
                ColumnSpec(
                    name=name,
                    dtype=column.dtype.str,
                    shape=tuple(column.shape),
                    offset=offset,
                )
            )
            source[name] = column
            offset += column.nbytes
        size = max(offset, 1)
        shm = create_segment(size, prefix=prefix)
        for spec in columns:
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
            )
            view[...] = source[spec.name]
            del view  # keep no exported buffer views: close() must not fail
        layout = SharedArraysLayout(segment=shm.name, size=size, columns=tuple(columns))
        return cls(shm, cls._views(shm, layout), layout, owner=True)

    @classmethod
    def attach(cls, layout: SharedArraysLayout) -> "SharedArrayBundle":
        """Map an existing segment and rebuild zero-copy views.

        Worker processes share the parent's
        ``multiprocessing.resource_tracker``, whose per-name cache is a set:
        attaching re-registers the same name at no cost, and the owner's
        :meth:`unlink` unregisters it exactly once.  A hard-crashed session
        (parent SIGKILLed before ``unlink``) is still reclaimed by the
        tracker at shutdown.
        """
        shm = shared_memory.SharedMemory(name=layout.segment)
        return cls(shm, cls._views(shm, layout), layout, owner=False)

    @staticmethod
    def _views(
        shm: shared_memory.SharedMemory, layout: SharedArraysLayout
    ) -> dict[str, np.ndarray]:
        return {
            spec.name: np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
            )
            for spec in layout.columns
        }

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The shared-memory-backed ``{name: ndarray}`` views."""
        if self._arrays is None:
            raise RuntimeError("shared array bundle is closed")
        return self._arrays

    @property
    def closed(self) -> bool:
        """Whether this process's mapping has been released."""
        return self._shm is None

    def close(self) -> None:
        """Release this process's mapping (idempotent, never raises).

        Drops the views first — NumPy holds exported pointers into the
        mapping, and ``SharedMemory.close`` refuses to unmap while any
        exist.  If some *other* object still holds a view (e.g. an engine
        that buffered a chunk), the unmap is skipped silently; the pages are
        reclaimed when that reference dies or the process exits.
        """
        self._arrays = None
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # a foreign view still pins the mapping
            return
        self._shm = None

    def unlink(self) -> None:
        """Remove the segment's backing file (owner only; idempotent).

        Safe to call while workers are still attached: POSIX keeps the pages
        alive until the last mapping closes, but the name disappears from
        ``/dev/shm`` immediately, so a crashed session never leaks a visible
        segment.
        """
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            if self._shm is not None:
                self._shm.unlink()
            else:  # mapping already closed: reattach just to remove the name
                handle = shared_memory.SharedMemory(name=self.layout.segment)
                handle.unlink()
                handle.close()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.owner:
            self.unlink()
        self.close()


__all__ = [
    "ColumnSpec",
    "SEGMENT_PREFIX",
    "SharedArrayBundle",
    "SharedArraysLayout",
    "SharedFlowView",
    "SharedMemoryCapacityError",
    "create_segment",
    "flow_meta",
    "flows_from_meta",
    "packet_columns",
]
