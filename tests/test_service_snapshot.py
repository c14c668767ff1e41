"""Daemon snapshot files: layout, bit-exact float sections, failure paths,
and the trust boundary (every truncation, every flipped byte, version skew).

The contract pinned here: :func:`load_snapshot` yields the exact core that
was saved or raises :class:`SimulationError` naming the file — never a raw
``KeyError``/``ValueError``/``UnicodeDecodeError``/``IndexError``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import stat
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import AppClass
from repro.errors import SimulationError
from repro.runtime.executors.framing import pack_frame, recv_frame
from repro.service import PartitionDaemon, ServiceCore, protocol
from repro.service import snapshot as snapshot_module
from repro.service.protocol import check_frame
from repro.service.snapshot import SNAPSHOT_FORMAT, load_snapshot, save_snapshot


def _sample(app, llcmpkc=40.0, stall=0.5):
    return {"app": app, "llcmpkc": llcmpkc, "stall_fraction": stall, "effective_ways": 11}


def _small_core() -> ServiceCore:
    """Two hosts, three bank rows, one classified app, one decision each."""
    core = ServiceCore()
    for host, boot in (("h0", 7), ("h1", 3)):
        core.handle_hello(protocol.host_hello(host, boot, 0)[1])
        frames = [
            ("app_arrive", protocol.app_arrive(1, "a")[1]),
            ("app_arrive", protocol.app_arrive(2, "b")[1]),
            ("monitor_samples", protocol.monitor_samples(
                3,
                [_sample("a"), _sample("b", llcmpkc=2.0, stall=0.04)],
                [{"app": "a", "class": AppClass.STREAMING.value,
                  "slowdown_table": None, "critical_size": None}],
            )[1]),
        ]
        if host == "h0":
            frames.append(("app_depart", protocol.app_depart(4, "b")[1]))
        for kind, payload in frames:
            core.handle(host, kind, payload)
    return core


def _canonical(core: ServiceCore) -> str:
    return json.dumps(core.to_state(), sort_keys=True)


def _split(blob: bytes):
    head, _, body = blob.partition(b"\n")
    return json.loads(head), body


class TestLayout:
    def test_header_then_canonical_body_with_float_sections(self, tmp_path):
        core = _small_core()
        path = tmp_path / "daemon.snapshot"
        written = save_snapshot(core, str(path))
        blob = path.read_bytes()
        assert written == len(blob)
        header, body = _split(blob)
        assert header == {
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
            "format": SNAPSHOT_FORMAT,
            "length": len(body),
            "version": 2,
        }
        state = json.loads(body)
        assert body == json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        bank = state["ingest"]["bank"]
        for key in ("critical_eval", "win_partials", "win_values"):
            assert isinstance(bank[key], str), key
        # Everything else in the bank stays a plain JSON image.
        assert isinstance(bank["win_start"], list)

    def test_round_trip_restores_the_exact_canonical_state(self, tmp_path):
        core = _small_core()
        path = tmp_path / "daemon.snapshot"
        save_snapshot(core, str(path))
        assert _canonical(load_snapshot(str(path))) == _canonical(core)

    def test_saving_the_same_core_twice_gives_identical_files(self, tmp_path):
        core = _small_core()
        save_snapshot(core, str(tmp_path / "one"))
        save_snapshot(core, str(tmp_path / "two"))
        assert (tmp_path / "one").read_bytes() == (tmp_path / "two").read_bytes()

    def test_core_without_a_bank_round_trips(self, tmp_path):
        core = ServiceCore()
        path = tmp_path / "empty.snapshot"
        save_snapshot(core, str(path))
        assert _canonical(load_snapshot(str(path))) == _canonical(core)


# Bit patterns a repr/float-parse round trip would be the first to lose.
_SPECIAL_BITS = [
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FE1CCF385EBC8A0,  # 1e308
    0x7FF0000000000000,  # +inf
    0x7FF8000000000000,  # the default quiet NaN
    0xFFF8000000000ABC,  # negative quiet NaN with a payload
    0x7FF4000000000001,  # signalling NaN with a payload
]


def _float64_bits():
    nan_payload = st.integers(1, (1 << 51) - 1).map(
        lambda p: 0x7FF0000000000000 | (1 << 51) | p
    )
    return st.one_of(
        st.sampled_from(_SPECIAL_BITS), nan_payload, st.integers(0, (1 << 64) - 1)
    )


class TestBitExactFloatSections:
    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(_float64_bits(), min_size=1, max_size=64))
    def test_window_arrays_round_trip_bit_for_bit(self, tmp_path_factory, bits):
        core = _small_core()
        bank = core.ingest.bank
        arrays = (bank._win_values, bank._win_partials, bank.critical_eval)
        for offset, arr in enumerate(arrays):
            flat = arr.reshape(-1)
            drawn = np.array(
                [bits[(i + offset) % len(bits)] for i in range(flat.size)],
                dtype=np.uint64,
            )
            flat[:] = drawn.view(np.float64)
        path = tmp_path_factory.mktemp("bits") / "daemon.snapshot"
        save_snapshot(core, str(path))
        restored = load_snapshot(str(path)).ingest.bank
        assert restored._win_values.tobytes() == bank._win_values.tobytes()
        assert restored._win_partials.tobytes() == bank._win_partials.tobytes()
        assert restored.critical_eval.tobytes() == bank.critical_eval.tobytes()


class TestFailurePath:
    def _previous(self, tmp_path):
        core = _small_core()
        path = tmp_path / "daemon.snapshot"
        save_snapshot(core, str(path))
        return core, path

    def _assert_clean(self, core, path):
        assert sorted(os.listdir(path.parent)) == [path.name]
        assert _canonical(load_snapshot(str(path))) == _canonical(core)

    def test_failed_write_removes_the_tmp_file(self, tmp_path, monkeypatch):
        previous, path = self._previous(tmp_path)

        class TornFile:
            def __init__(self, name, mode):
                self._handle = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(snapshot_module, "open", TornFile, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_snapshot(ServiceCore(), str(path))
        monkeypatch.undo()
        self._assert_clean(previous, path)

    def test_failed_fsync_removes_the_tmp_file(self, tmp_path, monkeypatch):
        previous, path = self._previous(tmp_path)

        def fail(_fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(snapshot_module.os, "fsync", fail)
        with pytest.raises(OSError, match="Input/output"):
            save_snapshot(ServiceCore(), str(path))
        monkeypatch.undo()
        self._assert_clean(previous, path)

    def test_file_and_directory_are_both_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def record(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(snapshot_module.os, "fsync", record)
        save_snapshot(_small_core(), str(tmp_path / "daemon.snapshot"))
        assert synced == [False, True]


class TestTrustBoundary:
    """Every damaged file yields the exact core or a typed, path-naming error."""

    def _check(self, path, blob, expected):
        path.write_bytes(blob)
        try:
            restored = load_snapshot(str(path))
        except SimulationError as exc:
            assert str(path) in str(exc), str(exc)
            return False
        assert _canonical(restored) == expected
        return True

    def test_truncate_at_every_byte_and_flip_every_byte(self, tmp_path):
        core = _small_core()
        expected = _canonical(core)
        good = tmp_path / "good.snapshot"
        save_snapshot(core, str(good))
        blob = good.read_bytes()
        assert len(blob) < 8000  # keeps the exhaustive sweep quick
        path = tmp_path / "damaged.snapshot"
        loaded = 0
        for cut in range(len(blob)):
            loaded += self._check(path, blob[:cut], expected)
        for index in range(len(blob)):
            for mask in (0x01, 0x80):
                damaged = bytearray(blob)
                damaged[index] ^= mask
                loaded += self._check(path, bytes(damaged), expected)
        # CRC32 catches every single-byte error and the header pins the
        # body length, so no damaged file loads at all.
        assert loaded == 0
        assert self._check(path, blob, expected)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("length"),
            lambda h: h.pop("crc32"),
            lambda h: h.update(length=str(h["length"])),
            lambda h: h.update(length=float(h["length"])),
            lambda h: h.update(crc32=True),
            lambda h: h.update(length=h["length"] + 1),
        ],
    )
    def test_malformed_header_fields(self, tmp_path, edit):
        path = tmp_path / "daemon.snapshot"
        save_snapshot(_small_core(), str(path))
        header, body = _split(path.read_bytes())
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SimulationError, match=re.escape(str(path))):
            load_snapshot(str(path))

    def test_non_object_body_and_bad_sections_are_typed(self, tmp_path):
        path = tmp_path / "daemon.snapshot"
        core = _small_core()

        def write(state):
            body = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
            header = {"crc32": zlib.crc32(body), "format": SNAPSHOT_FORMAT,
                      "length": len(body), "version": 2}
            path.write_bytes(json.dumps(header).encode() + b"\n" + body)

        save_snapshot(core, str(path))
        _header, body = _split(path.read_bytes())
        state = json.loads(body)
        bank = state["ingest"]["bank"]
        broken = [
            [1, 2, 3],
            {**state, "ingest": {**state["ingest"], "bank": [1]}},
            {**state, "ingest": {**state["ingest"], "bank": {**bank, "win_values": [0.5]}}},
            {**state, "ingest": {**state["ingest"], "bank": {**bank, "win_values": "!!"}}},
            {**state, "ingest": {**state["ingest"], "bank": {**bank, "win_values": "AAAA"}}},
            {**state, "ingest": {**state["ingest"], "bank": {**bank, "critical_eval": ""}}},
            {**state, "sessions": {"h0": {}}},
        ]
        for bad in broken:
            write(bad)
            with pytest.raises(SimulationError, match=re.escape(str(path))):
                load_snapshot(str(path))

    def test_version_one_file_is_refused_by_version(self, tmp_path):
        """The previous layout: one JSON envelope with the state inline."""
        state = _small_core().to_state()
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        envelope = {
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "crc32": zlib.crc32(canonical) & 0xFFFFFFFF,
            "state": state,
        }
        path = tmp_path / "daemon.snapshot"
        path.write_text(json.dumps(envelope, sort_keys=True) + "\n")
        with pytest.raises(SimulationError, match="version 1") as info:
            load_snapshot(str(path))
        assert str(path) in str(info.value)

    def test_future_version_header_is_refused_by_version(self, tmp_path):
        path = tmp_path / "daemon.snapshot"
        save_snapshot(_small_core(), str(path))
        header, body = _split(path.read_bytes())
        header["version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SimulationError, match="version 99") as info:
            load_snapshot(str(path))
        assert str(path) in str(info.value)


class TestDaemonSnapshotMetrics:
    def test_metrics_report_the_latest_snapshot(self, tmp_path):
        snap = tmp_path / "daemon.snapshot"
        with PartitionDaemon(("127.0.0.1", 0), snapshot=str(snap)) as daemon:
            assert daemon.summary()["last_snapshot_bytes"] is None
            daemon.write_snapshot()
            with socket.create_connection(daemon.address, timeout=10) as sock:
                sock.sendall(pack_frame(protocol.metrics()))
                sock.setblocking(False)
                for _ in range(200):
                    daemon.pump(timeout=0.01)
                    try:
                        if sock.recv(1, socket.MSG_PEEK):
                            break
                    except (BlockingIOError, InterruptedError):
                        pass
                sock.settimeout(10)
                kind, payload = check_frame(recv_frame(sock))
            assert kind == "metrics_reply"
            totals = payload["totals"]
            assert totals["snapshots_written"] == 1
            assert totals["last_snapshot_bytes"] == snap.stat().st_size
            assert totals["last_snapshot_pause_ms"] > 0.0
            assert totals["hosts"] == 0
        assert daemon.snapshots_written == 2  # close() takes the final one
