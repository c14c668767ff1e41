"""Fault-tolerance tests: wire fuzzing, handshakes, chaos plans, supervision.

The wire-layer twin of the checkpoint truncation fuzz
(``tests/test_experiments_checkpoint.py``), plus the robustness guarantees
of the distributed executors:

* framing survives truncation at every byte boundary and single-byte
  corruption with at worst a :class:`FrameProtocolError` — never a crash of
  another kind, and never a silently wrong message;
* version/codec negotiation rejects mismatched workers with a reason that
  lands in ``drop_events`` and the starvation error, and a frame with the
  removed pickle tag is refused without ever being unpickled;
* the one shared link loop drops exactly the faulty link — garbage, an
  oversized length prefix, a pickle-tag frame, EOF mid-frame — on both the
  TCP executor and the partitioning daemon, and keeps serving the others;
* a scripted :class:`FaultPlan` (worker kills + corrupted frames +
  duplicated results) on a supervised TCP executor leaves study rows
  bit-identical to :class:`SerialExecutor`;
* the worker supervisor respawns dead workers with backoff and trips its
  circuit breaker on crash loops instead of respawning forever.
"""

from __future__ import annotations

import json
import pickle
import select
import socket as socket_mod
import time
from collections import OrderedDict, deque

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.runtime import EngineConfig, RunSpec, SerialExecutor, TCPExecutor
from repro.runtime.executors import (
    CODEC_SAFE,
    PROTOCOL_VERSION,
    FaultPlan,
    FrameProtocolError,
    WorkerSupervisor,
)
from repro.runtime.executors.framing import (
    FrameReader,
    MAX_FRAME,
    _HEADER,
    pack_frame,
    recv_frame,
)
from repro.runtime.scheduler import StockLinuxDriver
from repro.service import PartitionDaemon, protocol
from repro.workloads import workload_by_name

FAST = EngineConfig(
    instructions_per_run=2.0e8, min_completions=1, record_traces=False
)


# ---------------------------------------------------------------------------
# Safe codec round-trips
# ---------------------------------------------------------------------------


def roundtrip(obj):
    reader = FrameReader()
    frames = list(reader.feed(pack_frame(obj)))
    assert len(frames) == 1 and reader.pending() == 0
    return frames[0]


_UNPICKLED: list = []


def _mark_unpickled():
    _UNPICKLED.append(True)


class _Unpickles:
    """Records a call if anything ever unpickles it."""

    def __reduce__(self):
        return (_mark_unpickled, ())


def pickle_frame(obj):
    """A frame in the removed pickle codec (tag 0x01), built by hand."""
    body = b"\x01" + pickle.dumps(obj)
    return _HEADER.pack(len(body)) + body


class _OneShotSocket:
    """The ``recv`` side of a socket that holds exactly ``data``."""

    def __init__(self, data):
        self.data = data

    def recv(self, n):
        chunk, self.data = self.data[:n], self.data[n:]
        return chunk


class TestSafeCodec:
    def test_container_round_trips_preserve_exact_types(self):
        od = OrderedDict([("b", 1), ("a", 2)])
        message = (
            "result",
            7,
            {
                "od": od,
                "dq": deque([1, 2, 3], maxlen=5),
                "set": {1, 2},
                "frozen": frozenset({"x"}),
                "bytes": b"\x00\xff",
                "tuple": (1, (2, 3)),
                "none": None,
            },
        )
        out = roundtrip(message)
        assert out[0] == "result" and out[1] == 7
        body = out[2]
        assert type(body["od"]) is OrderedDict
        assert list(body["od"]) == ["b", "a"]  # insertion order survives
        assert type(body["dq"]) is deque and body["dq"].maxlen == 5
        assert body["set"] == {1, 2} and type(body["set"]) is set
        assert body["frozen"] == frozenset({"x"})
        assert body["bytes"] == b"\x00\xff"
        assert body["tuple"] == (1, (2, 3))
        assert body["none"] is None

    def test_numpy_arrays_round_trip_bit_exact(self):
        arrays = [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.int32),
            np.array([[True, False]]),
        ]
        out = roundtrip(("payload", arrays))
        for original, restored in zip(arrays, out[1]):
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            assert np.array_equal(restored, original)

    def test_run_spec_round_trips_through_safe_codec(self):
        spec = RunSpec(
            workload=workload_by_name("S1"),
            driver_cls=StockLinuxDriver,
            label="base",
        )
        out = roundtrip(("run", 3, spec))
        assert out[2].driver_cls is StockLinuxDriver
        assert out[2].label == "base"
        assert out[2].workload == spec.workload

    def test_pickle_frames_refused_without_opt_in(self):
        """There is no opt-in any more: tag 0x01 is refused, never loaded."""
        _UNPICKLED.clear()
        with pytest.raises(FrameProtocolError, match="pickle codec was removed"):
            list(FrameReader().feed(pickle_frame(_Unpickles())))
        assert _UNPICKLED == []
        with pytest.raises(FrameProtocolError, match="pickle codec was removed"):
            recv_frame(_OneShotSocket(pickle_frame(("hello", {}))))

    def test_untrusted_class_references_refused(self):
        blob = pack_frame(("error", object()))
        with pytest.raises(FrameProtocolError, match="builtins"):
            list(FrameReader().feed(blob))


# ---------------------------------------------------------------------------
# Framing fuzz (the wire-layer mirror of the checkpoint truncation fuzz)
# ---------------------------------------------------------------------------


def fuzz_messages():
    return [
        ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE, "pid": 7}),
        ("result", 11, {"rows": [1.5, -2.25], "name": "αβ"}),
        ("payload", np.arange(6, dtype=np.float32)),
        ("ping",),
    ]


def frames_equal(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and np.array_equal(left, right)
        )
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            frames_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return set(left) == set(right) and all(
            frames_equal(v, right[k]) for k, v in left.items()
        )
    return left == right


class TestFramingFuzz:
    def test_truncation_at_every_byte(self):
        """A stream cut anywhere yields exactly the complete frames before
        the cut and never an error — torn tails just wait for more bytes."""
        messages = fuzz_messages()
        blobs = [pack_frame(m) for m in messages]
        stream = b"".join(blobs)
        boundaries = []
        offset = 0
        for blob in blobs:
            offset += len(blob)
            boundaries.append(offset)
        for cut in range(len(stream) + 1):
            reader = FrameReader()
            frames = list(reader.feed(stream[:cut]))
            expected = sum(1 for b in boundaries if b <= cut)
            assert len(frames) == expected, f"cut at byte {cut}"
            for message, frame in zip(messages, frames):
                assert frames_equal(frame, message), f"cut at byte {cut}"
            # The tail parses once the missing bytes arrive.
            rest = list(reader.feed(stream[cut:]))
            assert len(frames) + len(rest) == len(messages)

    def test_single_byte_corruption_never_crashes_the_reader(self):
        """Flipping any one byte either raises FrameProtocolError, parses
        fewer frames (the reader waits for bytes that never come), or — for
        flips inside free-form values — decodes different content.  It never
        raises anything else."""
        stream = b"".join(pack_frame(m) for m in fuzz_messages())
        rejected = 0
        for position in range(len(stream)):
            corrupted = bytearray(stream)
            corrupted[position] ^= 0xFF
            reader = FrameReader()
            try:
                list(reader.feed(bytes(corrupted)))
            except FrameProtocolError:
                rejected += 1
            except SimulationError:
                rejected += 1  # FrameProtocolError subclasses it anyway
        # Sanity: corruption is actually being detected, not waved through.
        assert rejected > len(stream) // 4

    def test_oversized_length_prefix_rejected_immediately(self):
        header = _HEADER.pack(MAX_FRAME + 1)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            list(FrameReader().feed(header))

    def test_oversized_frame_refused_at_send_time(self):
        big = np.zeros(MAX_FRAME // 8 + 16, dtype=np.float64)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            pack_frame(("payload", big))


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(42, frames=20, runs=10, corrupt=2, kills=1, slow=2)
        b = FaultPlan.seeded(42, frames=20, runs=10, corrupt=2, kills=1, slow=2)
        assert a == b
        assert a.corrupt_frames and a.kill_runs and a.slow_runs
        assert a != FaultPlan.seeded(43, frames=20, runs=10, corrupt=2, kills=1)

    def test_dict_round_trip(self):
        plan = FaultPlan(corrupt_frames=(1, 3), kill_runs=(0,), slow_s=0.1)
        data = json.loads(json.dumps(plan.to_dict()))  # the CLI/spec path
        assert FaultPlan.from_dict(data) == plan
        assert FaultPlan.from_dict(None) == FaultPlan()
        assert FaultPlan().to_dict() == {}

    def test_unknown_keys_and_bad_indexes_rejected(self):
        with pytest.raises(SimulationError, match="unknown FaultPlan key"):
            FaultPlan.from_dict({"corrupt_frame": [1]})
        with pytest.raises(SimulationError, match="non-negative"):
            FaultPlan(kill_runs=(-1,))
        with pytest.raises(SimulationError, match="must be a list"):
            FaultPlan(drop_frames=3)


# ---------------------------------------------------------------------------
# Handshake negotiation
# ---------------------------------------------------------------------------


def attach_fake_link(server, peer="test"):
    """A socketpair posing as a peer, attached to the server's link loop
    without going through accept()."""
    ours, theirs = socket_mod.socketpair()
    return server._loop.attach(ours, peer), theirs



class TestHandshake:
    def send_hello(self, executor, info):
        link, theirs = attach_fake_link(executor)
        try:
            theirs.sendall(pack_frame(("hello", info)))
            executor._read_link(link)
            reject = recv_frame(theirs)
        finally:
            theirs.close()
        return link, reject

    def test_version_mismatch_rejected_with_reason(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, reject = self.send_hello(
                executor, {"protocol": 1, "codec": CODEC_SAFE}
            )
            assert link not in executor._links
            assert reject[0] == "reject" and "version mismatch" in reject[1]
            assert any(
                "version mismatch" in reason
                for _peer, reason in executor.drop_events
            )
        finally:
            executor.close()

    def test_pickle_codec_hello_rejected(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, reject = self.send_hello(
                executor, {"protocol": PROTOCOL_VERSION, "codec": "pickle"}
            )
            assert link not in executor._links
            assert reject[0] == "reject" and "pickle codec was removed" in reject[1]
        finally:
            executor.close()

    def test_good_hello_marks_link_ready_and_ships_context(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_link(executor)
            try:
                theirs.sendall(
                    pack_frame(
                        ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE})
                    )
                )
                executor._read_link(link)
                assert link.ready and link in executor._links
                context = recv_frame(theirs)
                assert context[0] == "context"
            finally:
                theirs.close()
        finally:
            executor.close()

    def test_work_before_handshake_drops_the_link(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_link(executor)
            try:
                theirs.sendall(pack_frame(("pong",)))
                executor._read_link(link)
            finally:
                theirs.close()
            assert link not in executor._links
            assert any(
                "before handshake" in reason
                for _peer, reason in executor.drop_events
            )
        finally:
            executor.close()

    def test_starvation_error_names_recent_drop_reasons(self, platform):
        """Satellite: the final error says *why* workers went away."""
        executor = TCPExecutor(("127.0.0.1", 0), connect_timeout_s=0.4)
        try:
            executor.prepare(platform, default_config=FAST)
            self.send_hello(executor, {"protocol": 1, "codec": CODEC_SAFE})
            executor.submit(
                RunSpec(
                    workload=workload_by_name("S1"), driver_cls=StockLinuxDriver
                )
            )
            with pytest.raises(
                SimulationError, match="recent drops.*version mismatch"
            ):
                for _ in executor.as_completed():
                    pass
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# One link loop, two servers: a fault costs exactly the faulty link
# ---------------------------------------------------------------------------

_HELLO = ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE})

#: fault -> (bytes the bad peer sends, whether it then hangs up, the
#: recorded drop reason's prefix).
LINK_FAULTS = {
    "garbage": (
        _HEADER.pack(9) + b"\x02\xde\xad\xbe\xef\x00\x01\x02\x03",
        False,
        "bad frame: corrupt safe frame",
    ),
    "oversized-prefix": (
        _HEADER.pack(MAX_FRAME + 1),
        False,
        "bad frame: frame of",
    ),
    "pickle-tag": (
        pickle_frame(_HELLO),
        False,
        "bad frame: peer sent a pickle frame",
    ),
    "eof-mid-frame": (pack_frame(_HELLO)[:-3], True, "connection closed"),
}


def _readable(sock):
    return bool(select.select([sock], [], [], 0)[0])


class TestLinkFaults:
    def make_server(self, kind, platform):
        """(server, one pump, a healthy opening frame, the reply it earns)."""
        if kind == "tcp":
            executor = TCPExecutor(("127.0.0.1", 0))
            executor.prepare(platform, default_config=FAST)
            return executor, executor._pump, _HELLO, "context"
        daemon = PartitionDaemon(("127.0.0.1", 0))
        hello = protocol.host_hello("hostH", 1, 0)
        return daemon, lambda: daemon.pump(timeout=0.05), hello, "hello_ack"

    @pytest.mark.parametrize("fault", sorted(LINK_FAULTS))
    @pytest.mark.parametrize("kind", ["tcp", "daemon"])
    def test_fault_drops_only_that_link(self, kind, fault, platform):
        data, hang_up, reason = LINK_FAULTS[fault]
        server, pump, hello, reply_kind = self.make_server(kind, platform)
        try:
            bad, bad_peer = attach_fake_link(server, "bad")
            good, good_peer = attach_fake_link(server, "good")
            try:
                bad_peer.sendall(data)
                if hang_up:
                    bad_peer.close()
                good_peer.sendall(pack_frame(hello))
                deadline = time.monotonic() + 10.0
                while bad in server._links or not _readable(good_peer):
                    assert time.monotonic() < deadline, server.drop_events
                    pump()  # nothing may escape the pump
                bad_drops = [r for peer, r in server.drop_events if peer == "bad"]
                assert len(bad_drops) == 1 and bad_drops[0].startswith(reason)
                assert good in server._links
                good_peer.settimeout(5.0)
                assert recv_frame(good_peer)[0] == reply_kind
                if kind == "daemon":
                    assert server.frame_errors == (0 if hang_up else 1)
            finally:
                bad_peer.close()
                good_peer.close()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Heartbeat grace configuration
# ---------------------------------------------------------------------------


class TestHeartbeatGrace:
    def test_default_grace_tracks_heartbeat(self):
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_s=2.0)
        try:
            assert executor.heartbeat_grace_s == 10.0
        finally:
            executor.close()
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_s=8.0)
        try:
            assert executor.heartbeat_grace_s == 24.0
        finally:
            executor.close()

    def test_explicit_grace_reaches_the_executor_via_spec(self):
        from repro.experiments.specs import ExecutorSpec

        spec = ExecutorSpec(name="tcp", heartbeat_grace_s=42.0)
        assert ExecutorSpec.from_dict(spec.to_dict()) == spec
        executor = spec.create()
        try:
            assert executor.heartbeat_grace_s == 42.0
        finally:
            executor.close()

    def test_invalid_grace_rejected(self):
        from repro.errors import SpecError
        from repro.experiments.specs import ExecutorSpec

        with pytest.raises(SimulationError):
            TCPExecutor(("127.0.0.1", 0), heartbeat_grace_s=0.0)
        with pytest.raises(SpecError):
            ExecutorSpec(name="tcp", heartbeat_grace_s=-1.0)

    def test_unfinished_handshake_dropped_after_grace(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_grace_s=0.05)
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_link(executor)
            try:
                time.sleep(0.1)
                executor._heartbeat(time.monotonic())
                assert link not in executor._links
                assert any(
                    reason == "handshake timeout"
                    for _peer, reason in executor.drop_events
                )
            finally:
                theirs.close()
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------


class TestWorkerSupervisor:
    def test_first_spawn_extra_applies_once_to_slot_zero(self):
        supervisor = WorkerSupervisor(
            ("127.0.0.1", 1), count=2, first_spawn_extra=("--chaos", "{}")
        )
        first, second = supervisor._slots
        assert "--chaos" in supervisor._command(first)
        assert "--chaos" not in supervisor._command(second)
        first.spawn_count = 1  # the replacement spawns clean
        assert "--chaos" not in supervisor._command(first)
        supervisor.stop()

    def test_respawns_a_killed_worker(self):
        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        supervisor = WorkerSupervisor(
            listener.getsockname(),
            count=1,
            backoff_initial_s=0.05,
            backoff_max_s=0.2,
            healthy_uptime_s=0.2,
        )
        try:
            deadline = time.monotonic() + 60.0
            supervisor.poll()
            proc = supervisor._slots[0].proc
            assert proc is not None
            # Let it live past healthy_uptime_s, then murder it.
            time.sleep(0.3)
            supervisor.poll()
            proc.kill()
            proc.wait(timeout=30)
            while supervisor.restarts < 1:
                assert time.monotonic() < deadline, "respawn never happened"
                supervisor.poll()
                time.sleep(0.02)
            assert supervisor.summary()["restarts"] >= 1
            assert supervisor._slots[0].exits  # the kill was recorded
        finally:
            supervisor.stop()
            listener.close()
        assert supervisor.summary()["alive"] == 0

    def test_circuit_breaker_trips_on_crash_loop(self):
        # --connect with an unparseable flag makes every spawn die young.
        supervisor = WorkerSupervisor(
            ("127.0.0.1", 1),
            count=1,
            extra_args=("--definitely-not-a-flag",),
            backoff_initial_s=0.01,
            backoff_max_s=0.05,
            breaker_threshold=3,
            healthy_uptime_s=3600.0,  # every exit counts as a fast crash
        )
        try:
            deadline = time.monotonic() + 120.0
            with pytest.raises(SimulationError, match="crash-looped"):
                while True:
                    assert time.monotonic() < deadline, "breaker never tripped"
                    supervisor.poll()
                    time.sleep(0.02)
        finally:
            supervisor.stop()

    def test_needs_at_least_one_slot(self):
        with pytest.raises(SimulationError):
            WorkerSupervisor(("127.0.0.1", 1), count=0)


# ---------------------------------------------------------------------------
# The chaos soak: scripted faults on every backend, rows pinned to serial
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def make_specs(self, workload):
        from repro.runtime import DunnUserLevelDaemon

        return [
            RunSpec(workload=workload, driver_cls=StockLinuxDriver),
            RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon, label="Dunn"),
            RunSpec(workload=workload, driver_cls=StockLinuxDriver, label="base-2"),
            RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon),
        ]

    def result_key(self, result):
        return (
            result.policy,
            result.label,
            result.workload,
            result.duration_s,
            {name: stats.completion_times for name, stats in result.app_stats.items()},
            sorted(result.slowdowns().items()),
            result.n_repartitions,
        )

    def test_supervised_executor_under_adversarial_chaos(self, platform):
        """The acceptance pin: worker kills + corrupted frames + duplicated
        results on a supervised TCP executor; rows bit-identical to serial."""
        workload = workload_by_name("P1")
        serial = SerialExecutor()
        serial.prepare(platform, default_config=FAST)
        with serial:
            expected = [
                self.result_key(r) for r in serial.map_specs(self.make_specs(workload))
            ]

        executor = TCPExecutor(
            ("127.0.0.1", 0),
            min_workers=2,
            supervise=2,
            heartbeat_s=1.0,
            chaos=FaultPlan(corrupt_frames=(1,), duplicate_frames=(2,)),
            supervise_first_extra=(
                "--chaos",
                '{"kill_runs": [0], "duplicate_results": [1]}',
            ),
        )
        with executor:
            executor.prepare(platform, default_config=FAST)
            results = executor.map_specs(self.make_specs(workload))
            summary = executor.summary()
        assert [self.result_key(r) for r in results] == expected
        # The faults actually fired: the killed worker and the corrupted
        # frame each cost a link and forced a resubmission.
        assert executor.retries >= 1
        assert any("chaos" in reason for _peer, reason in executor.drop_events)
        assert summary["supervisor"]["restarts"] >= 1

    def test_seeded_chaos_study_rows_identical_across_backends(self):
        """A small fig7-style study under a seeded FaultPlan, spec-driven,
        on serial / pool / supervised — bit-identical rows throughout."""
        from repro.experiments import run_study

        spec = {
            "name": "chaos-soak",
            "scenarios": [
                {
                    "name": "dyn",
                    "kind": "dynamic",
                    "workloads": [{"suite": "all", "names": ["S1"]}],
                    "policies": [{"name": "dunn"}],
                    "engine": {
                        "instructions_per_run": 2.0e8,
                        "min_completions": 1,
                        "record_traces": False,
                    },
                }
            ],
        }
        serial_rows = run_study(spec, executor="serial").rows()
        pool_rows = run_study(
            spec, executor={"name": "pool", "workers": 2}
        ).rows()
        chaos = FaultPlan.seeded(7, frames=4, duplicates=1, delay_s=0.0)
        supervised_rows = run_study(
            spec,
            executor={
                "name": "supervised",
                "workers": 2,
                "heartbeat_s": 1.0,
                "chaos": chaos.to_dict(),
            },
        ).rows()
        assert pool_rows == serial_rows
        assert supervised_rows == serial_rows
