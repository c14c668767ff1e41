"""CRC-guarded snapshot files for the partitioning daemon.

A snapshot stores :meth:`~repro.service.session.ServiceCore.to_state` as
two parts: a one-line JSON header, a newline, then the body.

.. code-block:: text

    {"crc32":123456789,"format":"repro-service-snapshot","length":51234,"version":2}
    {"ever_completed":[...],"ingest":{...},"policy":"lfoc",...}

The body is the canonical serialization of the state
(``json.dumps(sort_keys=True, separators=(",", ":"))``), encoded once and
written verbatim.  ``length`` is its byte count and ``crc32`` covers
exactly those stored bytes.  A load checks both on the raw bytes and only
then parses the body, once.  The file ends with the body; nothing follows
it.

The monitor bank's float arrays (``win_values``, ``win_partials`` and
``critical_eval``) are not written float by float.  Each is stored as one
string: the base64 of its little-endian float64 bytes.  That is bit-exact
by construction (``-0.0``, subnormals and NaN payloads included) and far
cheaper to encode than one ``repr`` per float.
:meth:`~repro.runtime.monitor.MonitorBank.state_dict` stays a plain JSON
image; only this module knows the on-disk layout.

Every failure on load is a :class:`~repro.errors.SimulationError` that
names the file: a torn or truncated file, a flipped byte (CRC), a header
that is not this format, and any other version.  Version 1 files (a
single JSON envelope with the state inline) are refused by version, not
read.

Writes go to ``.<name>.tmp`` in the target directory, are fsynced, then
moved over the target with :func:`os.replace`, and the directory is
fsynced so the rename survives a power loss.  A daemon killed mid-write
leaves the previous snapshot intact, and a failed write removes its temp
file — "restore from the latest snapshot" always means the latest
*complete* one.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import zlib
from typing import Any, Dict

import numpy as np

from repro.errors import SimulationError
from repro.service.session import ServiceCore

__all__ = ["SNAPSHOT_FORMAT", "load_snapshot", "save_snapshot"]

SNAPSHOT_FORMAT = "repro-service-snapshot"
_VERSION = 2

#: Bank arrays stored as base64 little-endian float64 sections.
_FLOAT_SECTIONS = ("critical_eval", "win_partials", "win_values")


def _pack_sections(state: Dict[str, Any]) -> Dict[str, Any]:
    """``state`` with the bank's float arrays replaced by base64 sections
    (shallow copies on the way down; ``state`` itself is not modified)."""
    bank = state["ingest"]["bank"]
    if bank is None:
        return state
    packed = dict(bank)
    for key in _FLOAT_SECTIONS:
        raw = np.asarray(bank[key], dtype="<f8").tobytes()
        packed[key] = base64.b64encode(raw).decode("ascii")
    return {**state, "ingest": {**state["ingest"], "bank": packed}}


def _unpack_sections(state: Dict[str, Any], path: str) -> None:
    """Decode the bank's float sections of a parsed body in place."""
    ingest = state.get("ingest")
    bank = ingest.get("bank") if isinstance(ingest, dict) else None
    if bank is None:
        return
    if not isinstance(bank, dict):
        raise SimulationError(f"snapshot {path}: monitor bank state is not an object")
    for key in _FLOAT_SECTIONS:
        text = bank.get(key)
        if not isinstance(text, str):
            raise SimulationError(f"snapshot {path}: bank section {key!r} missing")
        try:
            raw = base64.b64decode(text, validate=True)
        except binascii.Error as exc:
            raise SimulationError(f"snapshot {path}: bank section {key!r}: {exc}") from exc
        if len(raw) % 8:
            raise SimulationError(
                f"snapshot {path}: bank section {key!r} holds {len(raw)} bytes, "
                f"not a whole number of float64s"
            )
        bank[key] = np.frombuffer(raw, dtype="<f8")


def save_snapshot(core: ServiceCore, path: str) -> int:
    """Atomically persist ``core``'s full control-plane state to ``path``.

    Returns the number of bytes written.
    """
    body = json.dumps(
        _pack_sections(core.to_state()), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    header = json.dumps(
        {
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
            "format": SNAPSHOT_FORMAT,
            "length": len(body),
            "version": _VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    blob = header + b"\n" + body
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return len(blob)


def _fsync_directory(directory: str) -> None:
    """Make a rename in ``directory`` durable (a no-op where unsupported)."""
    if not hasattr(os, "O_DIRECTORY"):
        return
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path: str) -> ServiceCore:
    """Rebuild a :class:`ServiceCore` from a snapshot file, verifying the CRC."""
    with open(path, "rb") as handle:
        blob = handle.read()
    newline = blob.find(b"\n")
    head, body = (blob, b"") if newline < 0 else (blob[:newline], blob[newline + 1:])
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise SimulationError(f"corrupt service snapshot {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SimulationError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if header.get("version") != _VERSION:
        raise SimulationError(
            f"unsupported snapshot version {header.get('version')!r} "
            f"in {path} (this build reads {_VERSION})"
        )
    expected_crc, length = header.get("crc32"), header.get("length")
    for key, value in (("crc32", expected_crc), ("length", length)):
        if type(value) is not int:
            raise SimulationError(
                f"corrupt service snapshot {path}: header {key} is {value!r}"
            )
    if len(body) != length:
        raise SimulationError(
            f"corrupt service snapshot {path}: header promises {length} body "
            f"bytes, file holds {len(body)}"
        )
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if expected_crc != actual_crc:
        raise SimulationError(
            f"snapshot {path} failed its CRC check "
            f"(stored {expected_crc}, computed {actual_crc})"
        )
    try:
        state = json.loads(body)
    except ValueError as exc:
        raise SimulationError(f"corrupt service snapshot {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise SimulationError(f"snapshot {path} has no state object")
    _unpack_sections(state, path)
    try:
        return ServiceCore.from_state(state)
    except (SimulationError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise SimulationError(f"snapshot {path} holds an invalid state: {exc}") from exc
