"""One non-blocking socket loop for both framed TCP servers.

The TCP executor's coordinator (:mod:`repro.runtime.executors.tcp`) and the
partitioning daemon (:mod:`repro.service.daemon`) are the same kind of
server: one thread, one ``selectors`` loop, many length-framed links.
:class:`LinkLoop` is that loop, written once — listener and selector, the
live links (peer, :class:`~repro.runtime.executors.framing.FrameReader`,
connect time), accept with keepalive, ``recv`` then ``feed``, a
bounded-blocking send, drop and teardown.  The servers keep only what a
frame *means*.

A link survives anything except its own faults.  EOF (``"connection
closed"``), a read error (``"read error"``), a frame the reader refuses
(``"bad frame: ..."``: an oversized length prefix, an unknown codec tag
such as the removed pickle tag ``0x01``, a corrupt envelope) and a failed
send (``"send failed: ..."``) drop that one link with the reason recorded
in :attr:`LinkLoop.drop_events`.  Nothing escapes :meth:`LinkLoop.poll`.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.executors.framing import FrameReader, enable_keepalive

__all__ = ["Link", "LinkLoop", "parse_address"]


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a clear error message."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not (port.isascii() and port.isdigit()):
        raise SimulationError(
            f"expected an address of the form host:port, got {text!r}"
        )
    if int(port) > 65535:
        raise SimulationError(f"port {port} in {text!r} is outside 0-65535")
    return host, int(port)


@dataclass(eq=False)
class Link:
    """One connection and its parse state; servers subclass it (``eq=False``)."""

    sock: socket.socket
    peer: str
    reader: FrameReader = field(default_factory=FrameReader)
    connected_at: float = 0.0


class LinkLoop:
    """The listener, selector and live links of one framed TCP server."""

    def __init__(
        self,
        bind: Tuple[str, int],
        *,
        new_link: Callable[..., Link] = Link,
        on_drop: Optional[Callable[[Link, str], None]] = None,
    ) -> None:
        """Listen on ``bind`` (port ``0`` picks a free one, see :attr:`address`).

        ``new_link(sock=..., peer=..., connected_at=...)`` builds each link
        record (a :class:`Link` subclass); ``on_drop(link, reason)`` runs
        after a link was dropped and closed.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(bind)
            listener.listen(64)
            listener.setblocking(False)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        self._new_link = new_link
        self._on_drop = on_drop
        self._closed = False
        #: The ``(host, port)`` peers should connect to.
        self.address: Tuple[str, int] = listener.getsockname()
        #: Live links, oldest first.
        self.links: List[Link] = []
        #: Every dropped link as ``(peer, reason)``, oldest first.
        self.drop_events: List[Tuple[str, str]] = []
        #: Links dropped because the reader refused their bytes.
        self.bad_frames = 0

    # -- links ---------------------------------------------------------------------

    def attach(self, sock: socket.socket, peer: str) -> Link:
        """Start serving a connected socket (accepted, or one end of a pair)."""
        sock.setblocking(False)
        link = self._new_link(sock=sock, peer=peer, connected_at=time.monotonic())
        self.links.append(link)
        self._selector.register(sock, selectors.EVENT_READ, link)
        return link

    def _accept_all(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:  # includes BlockingIOError: nothing left to accept
                return
            # A half-open peer (partition, powered-off host) otherwise goes
            # unnoticed; keepalive turns it into an error within minutes.
            enable_keepalive(sock)
            self.attach(sock, f"{addr[0]}:{addr[1]}")

    # -- the loop ------------------------------------------------------------------

    def poll(self, timeout: float) -> Iterator[Tuple[Link, List[Any]]]:
        """Wait up to ``timeout`` seconds, accept, and read every ready link.

        Yields ``(link, frames)`` for each link that delivered bytes (the
        list is empty while a frame is still torn).  The caller handles one
        link's frames before the next link is read, so a handler that drops
        another link is seen by the rest of the pass.
        """
        for key, _events in self._selector.select(timeout):
            if key.data is None:
                self._accept_all()
                continue
            frames = self.read(key.data)
            if frames is not None:
                yield key.data, frames

    def read(self, link: Link) -> Optional[List[Any]]:
        """Receive what ``link`` has and parse it into complete frames.

        ``None`` when nothing arrived or the link is gone — including when
        this read found EOF, a read error or a bad frame and dropped it.
        """
        if link.sock.fileno() < 0:
            return None  # dropped earlier in this pass
        try:
            data = link.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError:
            self.drop(link, "read error")
            return None
        if not data:
            self.drop(link, "connection closed")
            return None
        try:
            return list(link.reader.feed(data))
        except Exception as exc:
            self.bad_frames += 1
            self.drop(link, f"bad frame: {exc}")
            return None

    def send(self, link: Link, blob: bytes) -> None:
        """Bounded-blocking send; a failure drops the link."""
        try:
            link.sock.settimeout(30.0)
            try:
                link.sock.sendall(blob)
            finally:
                link.sock.settimeout(0.0)
        except OSError as exc:
            self.drop(link, f"send failed: {exc}")

    def reject(self, link: Link, blob: bytes, reason: str) -> None:
        """Send a courtesy frame (why the peer is refused), then drop."""
        self._courtesy(link, blob)
        self.drop(link, reason)

    def drop(self, link: Link, reason: str) -> None:
        """Close ``link``, record why, and tell the owner; idempotent."""
        if link not in self.links:
            return
        self.links.remove(link)
        self.drop_events.append((link.peer, reason))
        self._discard(link)
        if self._on_drop is not None:
            self._on_drop(link, reason)

    @staticmethod
    def _courtesy(link: Link, blob: bytes) -> None:
        try:
            link.sock.settimeout(5.0)
            link.sock.sendall(blob)
        except OSError:
            pass

    def _discard(self, link: Link) -> None:
        try:
            self._selector.unregister(link.sock)
        except (KeyError, ValueError):
            pass
        try:
            link.sock.close()
        except OSError:
            pass

    # -- teardown ------------------------------------------------------------------

    def close_listener(self) -> None:
        """Stop accepting connections; live links keep working.  Idempotent."""
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def close(
        self, *, farewell: Optional[bytes] = None, reason: Optional[str] = None
    ) -> None:
        """Close every link, the listener and the selector; idempotent.

        ``farewell`` is sent best-effort to each link first.  With
        ``reason`` each link goes through :meth:`drop` (recorded,
        ``on_drop`` called); without it links are closed silently.
        """
        if self._closed:
            return
        self._closed = True
        for link in list(self.links):
            if farewell is not None:
                self._courtesy(link, farewell)
            if reason is not None:
                self.drop(link, reason)
            else:
                self._discard(link)
        self.links.clear()
        self.close_listener()
        self._selector.close()
