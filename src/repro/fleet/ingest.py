"""The ingest listener: many producer connections into one daemon.

:class:`IngestListener` accepts concurrent
:class:`~repro.fleet.protocol.FleetClient` connections on a local TCP
socket, one bounded handler thread per connection (like the HTTP
side, excess producers wait in the listen backlog rather than
spawning unbounded threads).  Each connection runs the session state
machine:

    hello -> (segment | ping)* -> bye

Segments arrive inline or as a ``multiprocessing.shared_memory``
name (the producer-side fast path); either way the listener hands
the image bytes straight to :meth:`FleetDaemon.ingest_segment` and
acks — the ack is the protocol's backpressure, so a producer can
never outrun the accept side.  The ``bye`` ack waits for the
session's segments to finish analysis (plus any still-in-flight
completion callbacks) and returns the final accounting, so a
producer sees its exact salvage numbers in the close handshake.

Protocol violations answer with an in-band error ack and drop only
the offending connection; the daemon, the pool, and every other
session keep running.
"""

import socket
import threading
from concurrent.futures import wait as wait_futures

from repro.fleet import protocol
from repro.fleet.protocol import ProtocolError

__all__ = ["IngestListener"]


class _Connection:
    """One producer connection's session state machine."""

    def __init__(self, listener, sock):
        self.listener = listener
        self.daemon = listener.daemon
        self.sock = sock
        self.tenant = None
        self.session = None
        self.symtab_json = None
        self.futures = []

    def run(self):
        try:
            while True:
                frame = protocol.read_frame(self.sock)
                if frame is None:  # producer hung up
                    break
                header, payload = frame
                kind = header.get("type")
                if kind == "hello":
                    self._hello(header)
                elif kind == "segment":
                    self._segment(header, payload)
                elif kind == "ping":
                    protocol.write_frame(self.sock, {"ok": True})
                elif kind == "bye":
                    self._bye()
                    break
                else:
                    raise ProtocolError(f"unknown frame type {kind!r}")
        except ProtocolError as exc:
            self._refuse(str(exc))
        except OSError:  # connection torn down under us
            pass
        finally:
            if self.session is not None and self.tenant is not None:
                # Dirty hangup: still close the books on the session.
                if not self._said_bye:
                    self.daemon.close_session(self.tenant, self.session)
            self.sock.close()

    _said_bye = False

    def _refuse(self, message):
        try:
            protocol.write_frame(
                self.sock, {"ok": False, "error": message}
            )
        except OSError:
            pass

    def _hello(self, header):
        if self.session is not None:
            raise ProtocolError("duplicate hello")
        fields = []
        for key in ("tenant", "session", "symtab"):
            value = header.get(key)
            if value is None:
                raise ProtocolError(f"hello missing {key!r}")
            if not isinstance(value, str):
                raise ProtocolError(
                    f"hello {key} must be a string, not "
                    f"{type(value).__name__}"
                )
            fields.append(value)
        self.tenant, self.session, self.symtab_json = fields
        self.daemon.open_session(self.tenant, self.session)
        protocol.write_frame(
            self.sock, {"ok": True, "session": self.session}
        )

    def _segment(self, header, payload):
        if self.session is None:
            raise ProtocolError("segment before hello")
        shm_name = header.get("shm")
        segment = None
        if shm_name is not None:
            # Zero-copy fast path: the segment enters salvage as a
            # memoryview over the producer's shared memory — no bytes
            # are materialised on this side of the handoff (a
            # process-backed pool serialises at submit; either way the
            # attachment is released once the future completes).
            try:
                segment = protocol.shm_view(
                    shm_name, int(header["shm_size"])
                )
                payload = segment.view
            except Exception as exc:
                raise ProtocolError(
                    f"shared-memory segment {shm_name!r} unreadable: "
                    f"{exc}"
                ) from None
        accepted = len(payload)  # before any release can race us
        if not accepted:
            if segment is not None:
                segment.release()
            raise ProtocolError("empty segment")
        try:
            future = self.daemon.ingest_segment(
                self.tenant, self.symtab_json, payload,
                session=self.session,
            )
        except BaseException:
            if segment is not None:
                segment.release()
            raise
        if segment is not None:
            future.add_done_callback(lambda fut: segment.release())
        self.futures.append(future)
        protocol.write_frame(
            self.sock,
            {"ok": True, "accepted": accepted, "seq": len(self.futures)},
        )

    def _bye(self):
        if self.session is None:
            raise ProtocolError("bye before hello")
        self._said_bye = True
        # Final accounting: wait for this session's segments only.
        wait_futures(self.futures)
        self.daemon.drain()  # callbacks run after future completion
        accounting = self.daemon.close_session(self.tenant, self.session)
        protocol.write_frame(
            self.sock, {"ok": True, "accounting": accounting}
        )


class IngestListener:
    """Accept producer sessions for a daemon on a local socket."""

    def __init__(self, daemon, host="127.0.0.1", port=0,
                 max_sessions=32):
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1: {max_sessions}"
            )
        self.daemon = daemon
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self._slots = threading.BoundedSemaphore(max_sessions)
        self._sock = None
        self._thread = None
        self._stopping = threading.Event()
        self._handlers = set()
        self._lock = threading.Lock()

    @property
    def address(self):
        return (self.host, self.port)

    @property
    def running(self):
        return self._sock is not None

    def start(self):
        """Bind, listen, start the accept thread; returns the bound
        port."""
        if self._sock is not None:
            return self.port
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        sock.settimeout(0.2)  # lets the accept loop notice stop()
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._accept_loop,
            name="tee-perf-fleet-ingest",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                sock, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:  # listen socket closed under us
                return
            self._slots.acquire()
            if self._stopping.is_set():
                self._slots.release()
                sock.close()
                return
            thread = threading.Thread(
                target=self._handle,
                args=(sock,),
                name="tee-perf-fleet-session",
                daemon=True,
            )
            with self._lock:
                self._handlers.add(thread)
            thread.start()

    def _handle(self, sock):
        try:
            _Connection(self, sock).run()
        finally:
            self._slots.release()
            with self._lock:
                self._handlers.discard(threading.current_thread())

    def stop(self):
        """Stop accepting and wait for live sessions to finish their
        current frame exchange."""
        if self._sock is None:
            return
        self._stopping.set()
        self._thread.join()
        self._sock.close()
        self._sock = None
        self._thread = None
        with self._lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(timeout=5.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
