"""Schema-versioned, length-framed wire codec for the TCP executor.

The partitioning service (:mod:`repro.service`) speaks the same codec and
negotiates the same :data:`PROTOCOL_VERSION` in its ``host_hello``
handshake; its message kinds (``host_hello``, ``app_arrive``,
``app_depart``, ``monitor_samples``, ``mask_update``, ``host_bye``) are
defined and validated in :mod:`repro.service.protocol` on top of this
framing layer.

Every message on the wire is::

    [4-byte big-endian length][1-byte codec tag][payload]

where the length covers the tag byte plus the payload.  There is one codec,
the **safe** codec (tag ``0x02``): a stdlib-JSON envelope with raw binary
sections for NumPy arrays and byte strings::

    [4-byte json length][UTF-8 JSON][section 0][section 1]...

The JSON carries the protocol version, the section lengths, and the
message body as a *tagged tree*: scalars are plain JSON, every container
or rich value is a single-key marker object (``{"t": [...]}`` for a
tuple, ``{"nd": i, ...}`` for an ndarray stored in section ``i``, and so
on).  Classes and functions travel as ``module:qualname`` references and
object instances as a reference plus their encoded state — *never* as
executable payloads.  The decoder only resolves references into an
allowlist of trusted module prefixes (``repro`` and anything added with
:func:`trust_modules` or the ``REPRO_TRUSTED_MODULES`` environment
variable), so a hostile peer cannot make the receiver import or call
arbitrary code.

Tag ``0x01`` belonged to a pickle codec that has been removed.  A frame
carrying it is refused with a :class:`FrameProtocolError` and is never
unpickled; like any other refused frame it costs the sender its link (see
:mod:`repro.runtime.executors.links`).

Version skew is detected twice: every safe envelope embeds
:data:`PROTOCOL_VERSION`, and the worker handshake (``("hello", {...})``,
see :mod:`repro.runtime.executors.worker`) negotiates version and codec
before any run is dispatched; a worker asking for any codec but ``"safe"``
is rejected.  Both mismatches surface as :class:`ProtocolError`, never as
silent misbehaviour.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import socket
import struct
import types
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "PROTOCOL_VERSION",
    "CODEC_SAFE",
    "pack_frame",
    "send_frame",
    "recv_frame",
    "FrameReader",
    "FrameProtocolError",
    "ProtocolError",
    "MAX_FRAME",
    "enable_keepalive",
    "encode_payload",
    "decode_payload",
    "trust_modules",
]

#: Version of the safe wire protocol.  Bump on any change to the frame
#: layout, the envelope, or the tagged-tree grammar; mismatched peers
#: refuse each other loudly at handshake time instead of misparsing.
PROTOCOL_VERSION = 2

#: The one wire codec; workers advertise it in their hello.
CODEC_SAFE = "safe"

_TAG_SAFE = 0x02
#: Tag of the removed pickle codec, kept only to refuse it by name.
_TAG_REMOVED_PICKLE = 0x01


class FrameProtocolError(SimulationError):
    """The byte stream violates the framing protocol (corruption/version skew).

    Distinct from plain connection loss (EOF mid-frame), which peers treat
    as a clean shutdown: a protocol violation should surface as a failure.
    """


#: The public name for wire-protocol violations (version skew, refused
#: codec tags, untrusted references); ``FrameProtocolError`` is the historical
#: alias and remains the actual class for isinstance checks.
ProtocolError = FrameProtocolError


def enable_keepalive(sock: socket.socket) -> None:
    """Detect a silently vanished peer at the kernel level.

    Without this a half-open connection (peer host powered off, network
    partition with no FIN/RST) would block reads forever.  With keepalive
    the kernel probes an idle peer and delivers an error a couple of
    minutes after it stops answering.  The tuning knobs are Linux-specific;
    elsewhere the system defaults apply.  Best-effort: both sides of the
    executor transport still handle EOF/RST without it.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        if hasattr(socket, "TCP_KEEPIDLE"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 60)
        if hasattr(socket, "TCP_KEEPINTVL"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 10)
        if hasattr(socket, "TCP_KEEPCNT"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 5)
    except OSError:
        pass


_HEADER = struct.Struct(">I")
_U32 = struct.Struct(">I")

#: Upper bound on one frame's payload; a corrupt length prefix fails fast
#: instead of attempting a multi-gigabyte allocation.
MAX_FRAME = 1 << 30


# ---------------------------------------------------------------------------
# Trust policy for decoded references
# ---------------------------------------------------------------------------

_TRUSTED_PREFIXES: List[str] = ["repro"]
for _extra in os.environ.get("REPRO_TRUSTED_MODULES", "").split(","):
    _extra = _extra.strip()
    if _extra and _extra not in _TRUSTED_PREFIXES:
        _TRUSTED_PREFIXES.append(_extra)


def trust_modules(*prefixes: str) -> None:
    """Allow the safe decoder to resolve references into these module trees.

    ``repro`` is always trusted.  Extensions that register their own
    policies or drivers call this once (in the module that defines them) so
    their instances can cross the wire; workers inherit the setting through
    the ``REPRO_TRUSTED_MODULES`` environment variable (comma-separated
    prefixes).
    """
    for prefix in prefixes:
        if prefix and prefix not in _TRUSTED_PREFIXES:
            _TRUSTED_PREFIXES.append(prefix)


def _is_trusted(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _TRUSTED_PREFIXES
    )


def _resolve_ref(path: str) -> Any:
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise FrameProtocolError(f"malformed object reference {path!r}")
    if not _is_trusted(module_name):
        raise FrameProtocolError(
            f"frame references {path!r} but module {module_name!r} is not a "
            f"trusted prefix ({', '.join(_TRUSTED_PREFIXES)}); extensions must "
            f"opt in via repro.runtime.executors.framing.trust_modules or the "
            f"REPRO_TRUSTED_MODULES environment variable"
        )
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise FrameProtocolError(f"cannot resolve reference {path!r}: {exc}")
    return obj


def _ref_path(obj: Any) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise FrameProtocolError(
            f"{obj!r} is not wire-encodable: only module-level functions and "
            f"classes can travel by reference"
        )
    path = f"{module}:{qualname}"
    try:
        resolved: Any = importlib.import_module(module)
        for part in qualname.split("."):
            resolved = getattr(resolved, part)
    except (ImportError, AttributeError):
        resolved = None
    if resolved is not obj:
        raise FrameProtocolError(
            f"{obj!r} does not round-trip through its reference {path!r}; "
            f"ship a module-level object instead"
        )
    return path


# ---------------------------------------------------------------------------
# The tagged-tree encoder / decoder
# ---------------------------------------------------------------------------
#
# Grammar: scalars (None/bool/int/float/str) are bare JSON values; every
# other value is a single-key marker object.  Plain JSON arrays/objects
# never appear outside a marker, so the tree is unambiguous.

_OBJECT_GETSTATE = getattr(object, "__getstate__", None)
_OBJECT_SETSTATE = getattr(object, "__setstate__", None)


def _object_state(obj: Any) -> Any:
    """Extract restorable state without ever consulting ``__reduce__``."""
    cls = type(obj)
    getstate = getattr(cls, "__getstate__", None)
    if getstate is not None and getstate is not _OBJECT_GETSTATE:
        return obj.__getstate__()
    instance_dict = getattr(obj, "__dict__", None)
    slots: Dict[str, Any] = {}
    for klass in cls.__mro__:
        for name in getattr(klass, "__slots__", ()) or ():
            if name in ("__dict__", "__weakref__"):
                continue
            if hasattr(obj, name):
                slots[name] = getattr(obj, name)
    if slots:
        return (dict(instance_dict) if instance_dict else None, slots)
    if instance_dict is None:
        return None
    return dict(instance_dict)


def _restore_state(obj: Any, state: Any) -> None:
    cls = type(obj)
    setstate = getattr(cls, "__setstate__", None)
    if setstate is not None and setstate is not _OBJECT_SETSTATE:
        obj.__setstate__(state)
        return
    if state is None:
        return
    if isinstance(state, tuple) and len(state) == 2 and isinstance(state[1], dict):
        instance_dict, slots = state
        if instance_dict:
            obj.__dict__.update(instance_dict)
        for name, value in slots.items():
            object.__setattr__(obj, name, value)
        return
    if isinstance(state, dict):
        obj.__dict__.update(state)
        return
    raise FrameProtocolError(
        f"cannot restore {type(obj).__name__} from state of type "
        f"{type(state).__name__}"
    )


class _Encoder:
    def __init__(self) -> None:
        self.sections: List[bytes] = []

    def _section(self, data: bytes) -> int:
        self.sections.append(data)
        return len(self.sections) - 1

    def encode(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, str)):
            return obj
        if isinstance(obj, (int, float)) and not isinstance(obj, (np.generic,)):
            return obj
        if isinstance(obj, np.ndarray):
            if obj.dtype.hasobject or obj.dtype.names:
                raise FrameProtocolError(
                    f"ndarray dtype {obj.dtype} is not wire-encodable "
                    f"(object/structured dtypes cannot cross the safe codec)"
                )
            contiguous = np.ascontiguousarray(obj)
            return {
                "nd": self._section(contiguous.tobytes()),
                "dt": obj.dtype.str,
                "sh": list(obj.shape),
            }
        if isinstance(obj, np.generic):
            return {"ns": self._section(obj.tobytes()), "dt": obj.dtype.str}
        if isinstance(obj, bytes):
            return {"by": self._section(obj)}
        if isinstance(obj, bytearray):
            return {"ba": self._section(bytes(obj))}
        if isinstance(obj, tuple):
            if hasattr(obj, "_fields"):  # namedtuple: rebuild via its class
                return {
                    "nt": _ref_path(type(obj)),
                    "a": [self.encode(v) for v in obj],
                }
            if type(obj) is tuple:
                return {"t": [self.encode(v) for v in obj]}
        if type(obj) is list:
            return {"l": [self.encode(v) for v in obj]}
        if type(obj) is frozenset:
            return {"fs": [self.encode(v) for v in obj]}
        if type(obj) is set:
            return {"s": [self.encode(v) for v in obj]}
        if isinstance(obj, collections.OrderedDict):
            return {
                "od": [[self.encode(k), self.encode(v)] for k, v in obj.items()]
            }
        if type(obj) is dict:
            if all(isinstance(k, str) for k in obj):
                return {"m": {k: self.encode(v) for k, v in obj.items()}}
            return {
                "d": [[self.encode(k), self.encode(v)] for k, v in obj.items()]
            }
        if isinstance(obj, collections.deque):
            return {
                "dq": [self.encode(v) for v in obj],
                "mx": obj.maxlen,
            }
        if isinstance(obj, (dict, list, tuple, set, frozenset)):
            # A silently degraded container subclass (defaultdict losing its
            # factory, a custom list losing its type) is a latent bug on the
            # far side; refuse loudly at send time instead.
            raise FrameProtocolError(
                f"container subclass {type(obj).__name__} is not "
                f"wire-encodable; ship a plain container (or an OrderedDict/"
                f"deque, which are supported)"
            )
        if isinstance(obj, type):
            return {"r": _ref_path(obj)}
        if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
            return {"r": _ref_path(obj)}
        # Everything else is an instance: reference + encoded state.
        try:
            state = _object_state(obj)
        except Exception as exc:
            raise FrameProtocolError(
                f"cannot extract wire state from {type(obj).__name__}: {exc}"
            )
        return {"o": _ref_path(type(obj)), "st": self.encode(state)}


class _Decoder:
    def __init__(self, sections: List[bytes]) -> None:
        self.sections = sections

    def _section(self, index: Any) -> bytes:
        if not isinstance(index, int) or not 0 <= index < len(self.sections):
            raise FrameProtocolError(f"frame references missing section {index!r}")
        return self.sections[index]

    def decode(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, dict) and len(node) == 1:
            (marker, value), = node.items()
            if marker == "l":
                return [self.decode(v) for v in value]
            if marker == "t":
                return tuple(self.decode(v) for v in value)
            if marker == "m":
                return {k: self.decode(v) for k, v in value.items()}
            if marker == "d":
                return {self.decode(k): self.decode(v) for k, v in value}
            if marker == "od":
                return collections.OrderedDict(
                    (self.decode(k), self.decode(v)) for k, v in value
                )
            if marker == "s":
                return {self.decode(v) for v in value}
            if marker == "fs":
                return frozenset(self.decode(v) for v in value)
            if marker == "by":
                return self._section(value)
            if marker == "ba":
                return bytearray(self._section(value))
            if marker == "r":
                return _resolve_ref(value)
        if isinstance(node, dict) and "nd" in node:
            dtype = np.dtype(node["dt"])
            shape = tuple(node["sh"])
            raw = self._section(node["nd"])
            try:
                return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            except ValueError as exc:
                raise FrameProtocolError(f"corrupt ndarray section: {exc}")
        if isinstance(node, dict) and "ns" in node:
            dtype = np.dtype(node["dt"])
            raw = self._section(node["ns"])
            try:
                return np.frombuffer(raw, dtype=dtype)[0]
            except (ValueError, IndexError) as exc:
                raise FrameProtocolError(f"corrupt numpy scalar section: {exc}")
        if isinstance(node, dict) and "dq" in node:
            return collections.deque(
                (self.decode(v) for v in node["dq"]), maxlen=node.get("mx")
            )
        if isinstance(node, dict) and "nt" in node:
            cls = _resolve_ref(node["nt"])
            return cls(*[self.decode(v) for v in node["a"]])
        if isinstance(node, dict) and "o" in node:
            cls = _resolve_ref(node["o"])
            if not isinstance(cls, type):
                raise FrameProtocolError(
                    f"instance reference {node['o']!r} is not a class"
                )
            obj = cls.__new__(cls)
            _restore_state(obj, self.decode(node["st"]))
            return obj
        raise FrameProtocolError(
            f"unknown node in safe frame: {str(node)[:120]!r}"
        )


def encode_payload(obj: Any) -> bytes:
    """Serialize ``obj`` as a safe envelope (JSON header + binary sections)."""
    encoder = _Encoder()
    try:
        tree = encoder.encode(obj)
        header = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "s": [len(section) for section in encoder.sections],
                "b": tree,
            },
            separators=(",", ":"),
        ).encode("utf-8")
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise FrameProtocolError(f"message is not wire-encodable: {exc}")
    return b"".join([_U32.pack(len(header)), header, *encoder.sections])


def decode_payload(payload: bytes) -> Any:
    """Parse a safe envelope back into the message it carried."""
    if len(payload) < _U32.size:
        raise FrameProtocolError("truncated safe frame: missing envelope header")
    (json_len,) = _U32.unpack(payload[: _U32.size])
    if json_len > len(payload) - _U32.size:
        raise FrameProtocolError(
            f"corrupt safe frame: envelope header claims {json_len} bytes of "
            f"JSON but only {len(payload) - _U32.size} follow"
        )
    try:
        envelope = json.loads(payload[_U32.size : _U32.size + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameProtocolError(f"corrupt safe frame: {exc}")
    if not isinstance(envelope, dict):
        raise FrameProtocolError("corrupt safe frame: envelope is not an object")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise FrameProtocolError(
            f"peer speaks wire protocol {version!r}, this build speaks "
            f"{PROTOCOL_VERSION}; upgrade the older side"
        )
    lengths = envelope.get("s", [])
    if not isinstance(lengths, list) or not all(
        isinstance(n, int) and n >= 0 for n in lengths
    ):
        raise FrameProtocolError("corrupt safe frame: bad section table")
    sections: List[bytes] = []
    offset = _U32.size + json_len
    for length in lengths:
        if offset + length > len(payload):
            raise FrameProtocolError(
                "corrupt safe frame: section table exceeds the payload"
            )
        sections.append(payload[offset : offset + length])
        offset += length
    if offset != len(payload):
        raise FrameProtocolError(
            f"corrupt safe frame: {len(payload) - offset} trailing bytes after "
            f"the last section"
        )
    try:
        return _Decoder(sections).decode(envelope.get("b"))
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
        raise FrameProtocolError(f"corrupt safe frame: {exc}")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _decode_body(body: bytes) -> Any:
    if not body:
        raise FrameProtocolError("empty frame (no codec tag)")
    tag = body[0]
    if tag == _TAG_SAFE:
        return decode_payload(body[1:])
    if tag == _TAG_REMOVED_PICKLE:
        raise FrameProtocolError(
            "peer sent a pickle frame (tag 0x01), but the pickle codec was "
            "removed; only the safe codec (tag 0x02) is accepted"
        )
    raise FrameProtocolError(
        f"unknown codec tag 0x{tag:02x} (known: 0x{_TAG_SAFE:02x}={CODEC_SAFE})"
    )


def pack_frame(obj: Any) -> bytes:
    """Serialize one message: length prefix + codec tag + payload."""
    payload = encode_payload(obj)
    if 1 + len(payload) > MAX_FRAME:
        raise FrameProtocolError(
            f"message of {len(payload)} bytes exceeds the {MAX_FRAME}-byte "
            f"frame limit"
        )
    return b"".join([_HEADER.pack(1 + len(payload)), bytes([_TAG_SAFE]), payload])


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Blocking send of one framed message."""
    sock.sendall(pack_frame(obj))


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or None on a clean EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise SimulationError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Blocking receive of one framed message; None on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameProtocolError(f"frame of {length} bytes exceeds the frame limit")
    body = _recv_exactly(sock, length)
    if body is None:
        raise SimulationError("connection closed between frame header and payload")
    return _decode_body(body)


class FrameReader:
    """Incremental frame parser for non-blocking sockets.

    Corruption — an oversized length prefix, an unknown or removed codec
    tag, a malformed envelope — raises :class:`FrameProtocolError` out of
    :meth:`feed`; truncation (bytes simply missing) never raises, the parser
    just waits for more input.  The shared link loop
    (:class:`~repro.runtime.executors.links.LinkLoop`) turns a raise into a
    dropped link with a recorded reason, never an event-loop crash.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[Any]:
        """Absorb raw bytes; yield every complete message now available."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length > MAX_FRAME:
                raise FrameProtocolError(
                    f"frame of {length} bytes exceeds the frame limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            yield _decode_body(body)
