"""The benchmark's workloads: seeded inputs, set-up, one measured pass, oracles.

Each workload turns ``--seed`` into its inputs (the program only ever sees
the generated specs, mixes and frames) and offers three steps, each run
in a fresh process by ``rep.py``:

* ``prep`` — untimed: computes the seed's reference digest with an
  independent oracle path of the program, counts the operations one pass
  attempts, and builds any input files the measured pass needs (the
  warm-start tables of ``dyn-warm``);
* ``setup`` — everything before the measured work (imports are already
  done by then; spec resolution, the tables load, service hello/arrive);
* ``run`` — the measured pass; returns its timings, work count, attempted
  and failed operations, and the digest of its outputs.

A study digest is the SHA-256 of the canonical JSON of its rows; the
service digest is the SHA-256 of every host's ``ReplayLog.signature``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from layers import PASS_SPAN


def mix_seed(seed: int, *parts: Any) -> int:
    """A stable 32-bit sub-seed for one generated input."""
    return zlib.crc32(repr((seed,) + parts).encode("utf-8"))


def digest_of(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class Meter:
    """Times measured sections; under a tracer each becomes a root span."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        #: ``(start, end)`` of each measured section, ``time.monotonic()``.
        self.spans: List[Tuple[float, float]] = []

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Record no spans inside (the benchmark's own load generator)."""
        tracer = self.tracer
        was_active = tracer is not None and tracer.active
        if was_active:
            tracer.active = False
        try:
            yield
        finally:
            if was_active:
                tracer.active = True

    @contextmanager
    def measure(self) -> Iterator[None]:
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
            span = tracer.open(PASS_SPAN)
        start = time.monotonic()
        try:
            yield
        finally:
            self.spans.append((start, time.monotonic()))
            if tracer is not None:
                tracer.close(span)
                tracer.active = False


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

#: Fig. 7 shape: 8/12/16-application mixes of kinds S and P.
DYNAMIC_SIZES = (8, 12, 16)
DYNAMIC_KINDS = ("S", "P")
DYNAMIC_MIXES_PER_CELL = 8
#: Static study: S mixes small enough for the exact branch-and-bound path.
STATIC_SIZES = (5, 6, 7)
STATIC_MIXES_PER_SIZE = 16


def _study(name: str, scenario: Any) -> Any:
    from repro.experiments import StudySpec

    # One attempt and quarantine: a failing run becomes a failure record
    # that is counted, never a retry that hides it.
    return StudySpec(
        name=name,
        scenarios=(scenario,),
        jobs=1,
        fault_tolerance={"max_attempts": 1},
    )


def dynamic_study(
    seed: int, *, backend: str = "multirun", tables_path: Optional[str] = None
):
    from repro.experiments import EngineSpec, PolicySpec, ScenarioSpec, WorkloadSpec

    mixes = [
        WorkloadSpec(
            source="random",
            size=size,
            kind=kind,
            seed=mix_seed(seed, "dyn", size, kind, index),
            name=f"{kind}{size}m{index}",
        )
        for size in DYNAMIC_SIZES
        for kind in DYNAMIC_KINDS
        for index in range(DYNAMIC_MIXES_PER_CELL)
    ]
    scenario = ScenarioSpec(
        name="dynamic",
        kind="dynamic",
        workloads=tuple(mixes),
        policies=(PolicySpec("dunn"), PolicySpec("lfoc")),
        engine=EngineSpec(
            backend=backend,
            instructions_per_run=1.0e9,
            min_completions=2,
            tables_path=tables_path,
        ),
    )
    return _study("perfbench-dynamic", scenario)


def static_study(seed: int, *, solver_backend: str = "tabulated"):
    from repro.experiments import PolicySpec, ScenarioSpec, SolverSpec, WorkloadSpec

    mixes = [
        WorkloadSpec(
            source="random",
            size=size,
            kind="S",
            seed=mix_seed(seed, "static", size, index),
            name=f"S{size}m{index}",
        )
        for size in STATIC_SIZES
        for index in range(STATIC_MIXES_PER_SIZE)
    ]
    scenario = ScenarioSpec(
        name="static",
        kind="static",
        workloads=tuple(mixes),
        policies=(
            PolicySpec("lfoc"),
            PolicySpec("dunn"),
            PolicySpec("kpart"),
            PolicySpec("best_static"),
        ),
        solver=SolverSpec(backend=solver_backend, exact_limit=max(STATIC_SIZES)),
    )
    return _study("perfbench-static", scenario)


def _runs_in(spec: Any) -> int:
    """Runs a study attempts: every mix under the baseline and each policy."""
    scenario = spec.scenarios[0]
    return len(scenario.workloads) * (1 + len(scenario.policies))


def study_digest(result: Any) -> str:
    return digest_of(result.rows())


def run_and_digest(spec: Any) -> str:
    from repro.experiments import run_study

    return study_digest(run_study(spec))


class StudyWorkload:
    """A study run through ``run_study`` with the serial executor."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def tables_path(self, workdir: str) -> str:
        return os.path.join(workdir, "warm.tables")

    def spec(self, seed: int, workdir: str) -> Any:
        if self.kind == "static":
            return static_study(seed)
        if self.kind == "warm":
            return dynamic_study(seed, tables_path=self.tables_path(workdir))
        return dynamic_study(seed)

    def prep(self, seed: int, workdir: str) -> Dict[str, Any]:
        attempted = _runs_in(self.spec(seed, workdir))
        if self.kind == "static":
            # Oracle: the reference solver scores every candidate on its own.
            oracle = run_and_digest(static_study(seed, solver_backend="reference"))
            return {"digest": oracle, "attempted": attempted}
        # Oracle: per-run incremental engine instead of the stacked multirun one.
        oracle = run_and_digest(dynamic_study(seed, backend="incremental"))
        out = {"digest": oracle, "attempted": attempted}
        if self.kind == "warm":
            built = build_warm_tables(seed, self.tables_path(workdir))
            if built != oracle:
                out["error"] = "cold multirun rows differ from the oracle"
        return out

    def setup(self, seed: int, workdir: str, meter: Meter) -> Dict[str, Any]:
        spec = self.spec(seed, workdir)
        scenario = spec.scenarios[0]
        for workload in scenario.workloads:
            workload.resolve()
        if self.kind == "warm":
            # The first study lookup would load the snapshot; do it here so
            # the load is set-up time and the pass only reads the tables.
            from repro.experiments.specs import resolve_platform
            from repro.runtime.executors.base import worker_tables

            config = scenario.engine.to_config()
            worker_tables(
                resolve_platform(scenario.platform),
                config.max_table_entries,
                config.tables_path,
            )
        return {"spec": spec}

    def run(self, state: Dict[str, Any], meter: Meter) -> Dict[str, Any]:
        from repro.experiments import run_study

        spec = state["spec"]
        with meter.measure():
            result = run_study(spec)
        attempted = _runs_in(spec)
        rows = result.rows()
        return {
            "work": len(rows),
            "attempted": attempted,
            "failed": max(len(result.failures()), attempted - len(rows)),
            "digest": study_digest(result),
        }


def build_warm_tables(seed: int, path: str) -> str:
    """Run the cold multirun study once and persist the tables it filled.

    Returns the study digest, so the caller can check the cold rows too.
    """
    from repro.experiments import run_study
    from repro.runtime.executors import base
    from spans import Tracer

    used: List[Any] = []
    original = base.worker_tables

    def capture(*args: Any, **kwargs: Any) -> Any:
        tables = original(*args, **kwargs)
        used.append(tables)
        return tables

    tracer = Tracer()
    tracer.replace("repro.runtime.executors.base:worker_tables", capture)
    try:
        digest = study_digest(run_study(dynamic_study(seed)))
    finally:
        tracer.restore()
    if len({id(t) for t in used}) != 1:
        raise RuntimeError(f"expected one shared tables instance, saw {len(used)}")
    used[0].save(path)
    return digest


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------

#: Lockstep hosts, each a simulated host on its own seeded random S mix.
SERVICE_HOSTS = 32
SERVICE_MIX_SIZE = 6
SERVICE_BATCHES = 240
#: A snapshot is written before every 40th drain.  At about 4 ms a drain
#: that is one every 0.17 s of service time, far more often than the
#: daemon's 5 s default, so that pauses are 2.5% of drains and the 99th
#: percentile measures them rather than sitting on the boundary.
SNAPSHOT_EVERY = 40


def _host_workload(seed: int, index: int):
    from repro.workloads.generator import random_workload

    return random_workload(
        f"h{index}", SERVICE_MIX_SIZE, kind="S", seed=mix_seed(seed, "host", index)
    )


def _host_ids() -> List[str]:
    return [f"host{index}" for index in range(SERVICE_HOSTS)]


def service_oracle(seed: int) -> str:
    """Each host replayed alone against its own core (no wire, no drains)."""
    from repro.service import offline_replay

    signatures = []
    for index, host_id in enumerate(_host_ids()):
        log = offline_replay(
            host_id, _host_workload(seed, index), batches=SERVICE_BATCHES, seed=seed
        )
        signatures.append([host_id, log.signature(host_id)])
    return digest_of(signatures)


def _client(host: Any, host_id: str, churn: List[Tuple[int, str, str]]):
    """One agent's lockstep session, as ``drive_host`` sends it.

    A generator: it yields each frame to send and receives the decoded
    reply through ``send``.
    """
    from repro.service import protocol

    events: Dict[int, List[Tuple[str, str]]] = {}
    for batch_index, op, app in churn:
        events.setdefault(batch_index, []).append((op, app))
    live = list(host.apps)
    pending: List[Dict[str, Any]] = []
    seq = 0

    def apply(reply: Tuple[str, Any]) -> None:
        kind, payload = reply
        if kind != "mask_update":
            raise RuntimeError(f"{host_id}: expected mask_update, got {kind!r}")
        if payload["masks"] is not None:
            host.apply_masks(payload["masks"])
        for app in payload["sample"]:
            pending.append(host.classify(app))

    reply = yield protocol.host_hello(host_id, 1, 0)
    if reply[0] != "hello_ack":
        raise RuntimeError(f"{host_id}: handshake answered with {reply[0]!r}")
    for app in live:
        seq += 1
        apply((yield protocol.app_arrive(seq, app)))
    for batch in range(SERVICE_BATCHES):
        for op, app in events.get(batch, ()):
            seq += 1
            if op == "depart":
                if app in live:
                    live.remove(app)
                apply((yield protocol.app_depart(seq, app)))
            else:
                if app not in live:
                    live.append(app)
                apply((yield protocol.app_arrive(seq, app)))
        samples = [host.sample(app, batch) for app in live]
        classify = list(pending)
        pending.clear()
        seq += 1
        apply((yield protocol.monitor_samples(seq, samples, classify)))
    seq += 1
    apply((yield protocol.host_bye(seq)))


class _Link:
    """Server side of one host connection: its frame reader and bound host."""

    def __init__(self) -> None:
        from repro.runtime.executors.framing import FrameReader

        self.reader = FrameReader()
        self.host: Optional[str] = None


def serve_drain(
    core: Any, inbound: List[Tuple[_Link, bytes]]
) -> Tuple[List[Optional[bytes]], int]:
    """One event-loop drain, as the daemon runs it: read every link's bytes,
    validate each frame, answer handshakes inline, hand the sequenced frames
    to ``handle_drain`` as one batch, and encode every reply.

    Returns the reply bytes per inbound entry (``None`` where the frame was
    refused) and the count of refused frames.
    """
    from repro.errors import SimulationError
    from repro.runtime.executors.framing import pack_frame
    from repro.service.protocol import check_frame

    replies: List[Optional[bytes]] = [None] * len(inbound)
    failed = 0
    drain: List[Tuple[int, str, str, Any]] = []
    for index, (link, data) in enumerate(inbound):
        try:
            for frame in link.reader.feed(data):
                kind, payload = check_frame(frame)
                if kind == "host_hello":
                    link.host = payload["host"]
                    replies[index] = pack_frame(core.handle_hello(payload))
                else:
                    drain.append((index, link.host, kind, payload))
        except SimulationError:
            failed += 1
    if drain:
        results = core.handle_drain([entry[1:] for entry in drain])
        for (index, _host, _kind, _payload), result in zip(drain, results):
            if isinstance(result, Exception):
                failed += 1
            else:
                replies[index] = pack_frame(result)
    return replies, failed


class ServiceWorkload:
    """Closed loop of lockstep simulated hosts over an in-process ServiceCore."""

    def prep(self, seed: int, workdir: str) -> Dict[str, Any]:
        from repro.service import SimulatedHost, churn_schedule, host_seed

        frames = 0
        for index, host_id in enumerate(_host_ids()):
            apps = SimulatedHost(_host_workload(seed, index)).apps
            churn = churn_schedule(apps, SERVICE_BATCHES, host_seed(seed, host_id))
            frames += SERVICE_BATCHES + len(churn) + 1  # samples, churn, bye
        return {"digest": service_oracle(seed), "attempted": frames}

    def setup(self, seed: int, workdir: str, meter: Meter) -> Dict[str, Any]:
        from repro.service import ServiceCore, SimulatedHost, churn_schedule, host_seed

        core = ServiceCore(policy="lfoc")
        clients = []
        with meter.suspend():
            for index, host_id in enumerate(_host_ids()):
                sub_seed = host_seed(seed, host_id)
                host = SimulatedHost(_host_workload(seed, index), seed=sub_seed)
                churn = churn_schedule(host.apps, SERVICE_BATCHES, sub_seed)
                clients.append([_client(host, host_id, churn), _Link(), None])
            for client in clients:
                client[2] = next(client[0])
        state = {
            "core": core,
            "clients": clients,
            "snapshot": os.path.join(workdir, f"service-{os.getpid()}.snapshot"),
            "frames": 0,
            "failed": 0,
            "samples": 0,
        }
        # Hello and arrivals: every host registers all of its applications.
        for _ in range(1 + SERVICE_MIX_SIZE):
            self._round(state, meter, timed=False)
        return state

    def _round(
        self, state: Dict[str, Any], meter: Meter, *, timed: bool, snapshot: bool = False
    ) -> None:
        from repro.runtime.executors.framing import FrameReader, pack_frame
        from repro.service.protocol import check_frame
        from repro.service.snapshot import save_snapshot

        active = [c for c in state["clients"] if c[2] is not None]
        # Client side (load generator, not timed): encode each next frame.
        with meter.suspend():
            inbound = [(link, pack_frame(frame)) for _gen, link, frame in active]
        for _gen, _link, frame in active:
            if frame[0] == "monitor_samples":
                state["samples"] += len(frame[1]["samples"])
        state["frames"] += len(active)
        if timed:
            with meter.measure():
                if snapshot:
                    save_snapshot(state["core"], state["snapshot"])
                replies, failed = serve_drain(state["core"], inbound)
        else:
            replies, failed = serve_drain(state["core"], inbound)
        state["failed"] += failed
        with meter.suspend():
            decoder = FrameReader()
            for client, reply in zip(active, replies):
                if reply is None:
                    client[2] = None  # a refused frame ends that host's session
                    continue
                (decoded,) = list(decoder.feed(reply))
                try:
                    client[2] = client[0].send(check_frame(decoded))
                except StopIteration:
                    client[2] = None

    def run(self, state: Dict[str, Any], meter: Meter) -> Dict[str, Any]:
        state["frames"] = state["failed"] = state["samples"] = 0
        drains = 0
        while any(c[2] is not None for c in state["clients"]):
            drains += 1
            self._round(state, meter, timed=True, snapshot=drains % SNAPSHOT_EVERY == 0)
        if os.path.exists(state["snapshot"]):
            os.remove(state["snapshot"])
        core = state["core"]
        signatures = [[host_id, core.replay.signature(host_id)] for host_id in _host_ids()]
        return {
            "work": state["samples"],
            "attempted": state["frames"],
            "failed": state["failed"],
            "digest": digest_of(signatures),
        }


WORKLOADS: Dict[str, Any] = {
    "dyn-cold": StudyWorkload("cold"),
    "dyn-warm": StudyWorkload("warm"),
    "static-opt": StudyWorkload("static"),
    "svc-lfoc": ServiceWorkload(),
}
