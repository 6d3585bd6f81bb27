"""Shared-memory lifecycle tests for :mod:`repro.datasets.shm`.

The process-sharded serving engine depends on three properties checked
here: a :class:`SharedArrayBundle` of :func:`packet_columns` rebuilds every
``PacketArrays`` column bit-exactly, close/unlink are idempotent in any
order, and an unlinked segment leaves no trace under ``/dev/shm``.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np
import pytest

from repro.datasets.flows import PacketArrays
from repro.datasets.shm import SEGMENT_PREFIX, SharedArrayBundle, packet_columns


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _share(soa: PacketArrays) -> SharedArrayBundle:
    return SharedArrayBundle.create(packet_columns(soa))


@pytest.fixture()
def soa(small_dataset) -> PacketArrays:
    return small_dataset.packet_arrays()


class TestRoundTrip:
    def test_every_column_is_bit_identical(self, soa):
        shared = _share(soa)
        try:
            view = SharedArrayBundle.attach(shared.layout)
            rebuilt = PacketArrays(**view.arrays)
            for field_ in fields(PacketArrays):
                if not field_.init:
                    continue  # process-local caches are not shared columns
                original = getattr(soa, field_.name)
                copy = getattr(rebuilt, field_.name)
                assert copy.dtype == original.dtype, field_.name
                assert np.array_equal(copy, original), field_.name
            del rebuilt
            view.close()
        finally:
            shared.unlink()
            shared.close()

    def test_derived_cache_is_not_shared(self, soa):
        soa.derived["probe"] = np.arange(3)
        try:
            assert "derived" not in packet_columns(soa)
            with _share(soa) as shared:
                assert "derived" not in shared.arrays
                assert PacketArrays(**shared.arrays).derived == {}
        finally:
            del soa.derived["probe"]

    def test_layout_is_picklable(self, soa):
        import pickle

        shared = _share(soa)
        try:
            layout = pickle.loads(pickle.dumps(shared.layout))
            view = SharedArrayBundle.attach(layout)
            assert PacketArrays(**view.arrays).n_packets == soa.n_packets
            view.close()
        finally:
            shared.unlink()
            shared.close()

    def test_empty_dataset(self):
        shared = _share(PacketArrays.from_flows([]))
        try:
            view = SharedArrayBundle.attach(shared.layout)
            rebuilt = PacketArrays(**view.arrays)
            assert rebuilt.n_flows == 0 and rebuilt.n_packets == 0
            view.close()
        finally:
            shared.unlink()
            shared.close()


class TestLifetime:
    def test_segment_named_and_removed_on_unlink(self, soa):
        shared = _share(soa)
        name = shared.layout.segment
        assert name.startswith(SEGMENT_PREFIX)
        assert _segment_exists(name)
        shared.unlink()
        shared.close()
        assert not _segment_exists(name)

    def test_unlink_after_close_still_removes_the_name(self, soa):
        # Reverse order: the mapping is gone but the name must still be
        # reclaimable (the crash-cleanup path can hit this ordering).
        shared = _share(soa)
        name = shared.layout.segment
        shared.close()
        assert _segment_exists(name)
        shared.unlink()
        assert not _segment_exists(name)

    def test_context_manager_owner_unlinks(self, soa):
        with _share(soa) as shared:
            name = shared.layout.segment
            assert _segment_exists(name)
        assert not _segment_exists(name)


class TestCapacityPreflight:
    def test_oversized_segment_raises_clear_error(self, soa, monkeypatch):
        from repro.datasets import shm as shm_module

        monkeypatch.setattr(shm_module, "_shm_bytes_available", lambda: 1024)
        with pytest.raises(shm_module.SharedMemoryCapacityError) as excinfo:
            _share(soa)
        assert excinfo.value.available == 1024
        assert excinfo.value.requested > 1024
        assert "/dev/shm" in str(excinfo.value)
        # Subclasses MemoryError so generic OOM handling still applies.
        assert isinstance(excinfo.value, MemoryError)

    def test_unknown_capacity_skips_preflight(self, soa, monkeypatch):
        from repro.datasets import shm as shm_module

        monkeypatch.setattr(shm_module, "_shm_bytes_available", lambda: None)
        with _share(soa) as shared:
            assert PacketArrays(**shared.arrays).n_packets == soa.n_packets

    def test_fitting_segment_passes_preflight(self, soa):
        with _share(soa) as shared:
            assert PacketArrays(**shared.arrays).n_packets == soa.n_packets


class TestSharedArrayBundle:
    """The bundle with arbitrary arrays, as the parallel DSE pool uses it."""

    @pytest.fixture()
    def payload(self) -> dict:
        rng = np.random.default_rng(9)
        return {
            "features": rng.normal(size=(13, 4)).astype(np.float32),
            "labels": rng.integers(0, 3, size=13).astype(np.int64),
            "indices": np.arange(7, dtype=np.int32),
            "empty": np.empty((0, 5), dtype=np.float64),
        }

    def test_roundtrip_is_exact(self, payload):
        with SharedArrayBundle.create(payload) as shared:
            view = SharedArrayBundle.attach(shared.layout)
            try:
                assert set(view.arrays) == set(payload)
                for name, array in payload.items():
                    got = view.arrays[name]
                    assert got.dtype == array.dtype
                    assert got.shape == array.shape
                    np.testing.assert_array_equal(got, array)
            finally:
                view.close()

    def test_views_are_zero_copy(self, payload):
        with SharedArrayBundle.create(payload) as shared:
            view = SharedArrayBundle.attach(shared.layout)
            try:
                view.arrays["labels"][0] = 77
                assert shared.arrays["labels"][0] == 77
            finally:
                view.close()

    def test_prefix_names_the_segment(self, payload):
        with SharedArrayBundle.create(payload, prefix="splidt-dse") as shared:
            assert shared.layout.segment.startswith("splidt-dse-")
            assert _segment_exists(shared.layout.segment)
        assert not _segment_exists(shared.layout.segment)

    def test_attacher_cannot_unlink_and_close_is_idempotent(self, payload):
        shared = SharedArrayBundle.create(payload)
        try:
            view = SharedArrayBundle.attach(shared.layout)
            view.unlink()  # non-owner: must be a no-op
            assert _segment_exists(shared.layout.segment)
            view.close()
            view.close()
            assert view.closed
            with pytest.raises(RuntimeError, match="closed"):
                view.arrays
        finally:
            shared.unlink()
            shared.unlink()
            shared.close()
