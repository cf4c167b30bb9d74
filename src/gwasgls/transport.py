"""Rank-addressed message passing for the distributed engine.

One transport class. Each rank owns one receive queue per source and
channel, and is joined to every other rank by one local socket pair
carrying length-prefixed binary frames; a drain thread per peer queues
the frames that arrive, and a rank delivers to itself through its own
queue. run_spmd makes the socket pairs and runs the ranks as threads of
this process (transport="inproc", so in-process spies see every rank's
calls) or as forked worker processes ("socket"), with one rank body for
both. With no sockets, Transport(0, 1) is the one-rank transport of the
ooc engine.

Messages between a fixed ordered pair of ranks are delivered in order;
collectives are built deterministically on send/recv so two runs with the
same inputs move the same bytes in the same order, and no rank relays
another's data. A rank that ends closes its sockets, and its peers queue
a sentinel behind its last message, so a peer still waiting on it raises
TransportFailure instead of hanging.
"""

from __future__ import annotations

import contextlib
import pickle
import queue
import socket
import struct
import threading

from . import _blas
from .errors import ConfigError, SizeMismatch, TransportFailure

_GONE = None  # queued behind a peer's last message once it has ended

# a frame's header: its length (the channel byte and the payload), little
# endian, then the channel byte
_HEADER = struct.Struct("<QB")


def _write_frame(sock, channel, data):
    """Send one frame: the header, then data as it is, with no copy. An
    empty payload is not sent at all: the peer may have read the header,
    finished and closed, and a send of nothing to it would fail."""
    sock.sendall(_HEADER.pack(len(data) + 1, channel))
    if data:
        sock.sendall(data)


def _read_exact(sock, nbytes):
    """The next nbytes from sock, as one bytes object of that length that
    recv with MSG_WAITALL fills straight from the socket. Unlike a zeroed
    buffer for recv_into, its pages are touched only as data arrives, so
    a corrupt length costs no memory. Only a receive cut short by a
    signal is completed by a join. Raises ConnectionError when the peer
    closes."""
    data = sock.recv(nbytes, socket.MSG_WAITALL)
    while len(data) < nbytes:
        more = sock.recv(nbytes - len(data), socket.MSG_WAITALL)
        if not more:
            raise ConnectionError("peer closed")
        data += more
    return data


def _read_frame(sock):
    """(channel, payload) of the next frame on sock."""
    ln, channel = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if ln < 1:
        raise ConnectionError(f"frame of length {ln} has no channel byte")
    if channel > 1:
        raise ConnectionError(f"frame on unknown channel {channel}")
    return channel, _read_exact(sock, ln - 1)


class Transport:
    """Point-to-point send/recv plus collectives on one rank.
    `socks[peer]` is this rank's end of the socket pair it shares with
    each other rank. A frame is an 8-byte LE length, the channel byte and
    the payload. Only the rank's own thread sends, so the two writes of a
    frame are never split by another frame. Made with size 1 and no
    sockets, every collective returns this rank's own data and nothing is
    sent."""

    def __init__(self, rank, size, socks=None):
        self.rank = rank
        self.size = size
        self.bytes_sent = 0
        # (src, channel) -> payloads from src; channel 1 carries collective
        # traffic so it can never be confused with user point-to-point
        # messages
        self._queues = {(src, ch): queue.SimpleQueue()
                        for src in range(size) for ch in (0, 1)}
        self._socks = socks or {}
        self._drains = [threading.Thread(target=self._drain, args=(peer, sock),
                                         daemon=True)
                        for peer, sock in self._socks.items()]
        for th in self._drains:
            th.start()

    def _drain(self, peer, sock):
        try:
            while True:
                channel, payload = _read_frame(sock)
                self._queues[(peer, channel)].put(payload)
        except Exception:  # a closed socket, or a length no allocation backs
            for channel in (0, 1):
                self._queues[(peer, channel)].put(_GONE)

    def send(self, dst, data, _channel=0):
        if not 0 <= dst < self.size:
            raise TransportFailure(self.rank, f"bad destination {dst}")
        self.bytes_sent += len(data)
        if dst == self.rank:
            self._queues[(dst, _channel)].put(bytes(data))
            return
        try:
            _write_frame(self._socks[dst], _channel, data)
        except OSError as e:  # the peer has closed its end
            raise TransportFailure(self.rank, f"send to rank {dst}: {e}") from None

    def recv(self, src, _channel=0):
        if not 0 <= src < self.size:
            raise TransportFailure(self.rank, f"bad source {src}")
        data = self._queues[(src, _channel)].get()
        if data is _GONE:
            raise TransportFailure(self.rank, f"rank {src} ended before sending")
        return data

    def barrier(self):
        self.allgather(b"")

    def broadcast(self, root, data=b""):
        if self.size == 1:
            return data
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(dst, data, _channel=1)
            return data
        return self.recv(root, _channel=1)

    def allgather(self, data):
        return self.alltoall([data] * self.size)

    def alltoall(self, slices):
        return self.alltoall_finish(self.alltoall_start(slices))

    def alltoall_start(self, slices):
        """First half of alltoall: send slices[dst] to every other rank and
        return this rank's own slice, which alltoall_finish takes. The
        caller may compute between the halves, and may start further
        exchanges; every rank must finish them in the order it started
        them."""
        if len(slices) != self.size:
            raise SizeMismatch(f"alltoall needs {self.size} slices, got {len(slices)}")
        for dst in range(self.size):
            if dst != self.rank:
                self.send(dst, slices[dst], _channel=1)
        return bytes(slices[self.rank])

    def alltoall_finish(self, own):
        """Second half of alltoall: the slices every rank sent this one,
        in rank order, with `own` at this rank's place."""
        return [own if src == self.rank else self.recv(src, _channel=1)
                for src in range(self.size)]

    # object-level conveniences (pickled payloads)
    def broadcast_obj(self, root, obj=None):
        if self.rank == root:
            self.broadcast(root, pickle.dumps(obj))
            return obj
        return pickle.loads(self.broadcast(root))

    def allgather_obj(self, obj):
        return [pickle.loads(b) for b in self.allgather(pickle.dumps(obj))]

    def close(self):
        """Shut every socket down, which ends each peer's drain of it and
        this rank's own drains, then close them once those have ended, so
        no thread is left reading a closed descriptor."""
        for sock in self._socks.values():
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        for th in self._drains:
            th.join()
        for sock in self._socks.values():
            sock.close()


def _raise_first(errors):
    """Re-raise the root cause: the first error that is not a
    TransportFailure, else the first error."""
    errors = [e for e in errors if e is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, TransportFailure)),
                   errors[0])


def _rank(rank, size, socks, fn, args):
    """The body of one rank, thread or process: fn on a transport over
    this rank's socket ends, which it closes when fn ends. Returns ("ok",
    result) or ("err", the exception fn raised)."""
    t = Transport(rank, size, socks)
    try:
        return "ok", fn(t, *args)
    except BaseException as e:  # ship the failure back to the launcher
        return "err", e
    finally:
        t.close()


def _forked_rank(rank, size, socks, fn, args, conn):
    for other, ends in enumerate(socks):
        if other != rank:
            for sock in ends.values():
                sock.close()
    conn.send(_rank(rank, size, socks[rank], fn, args))
    conn.close()


def run_spmd(size, fn, *args, transport="inproc"):
    """Run fn(transport, *args) on `size` ranks; returns per-rank results.

    The ranks are joined pairwise by local socket pairs. transport="inproc"
    runs them as threads in this process; "socket" forks worker
    processes. Every rank is joined; if ranks raise, the first error that
    is not a TransportFailure is re-raised here, and a socket rank that
    exits without reporting raises TransportFailure(rank, "exited with
    code N"). A size below 1 raises ConfigError before any rank starts.
    OpenBLAS is capped for the size before the ranks start, and restored
    once they are joined (_blas.rank_threads).
    """
    if size < 1:
        raise ConfigError(f"need at least one rank, got {size}")
    if transport not in ("inproc", "socket"):
        raise ValueError(f"unknown transport {transport!r}")
    with _blas.rank_threads(size):
        return _launch(size, fn, args, transport)


def _launch(size, fn, args, transport):
    """Make the socket pairs, then start, join and collect the ranks of
    run_spmd."""
    socks = [{} for _ in range(size)]  # socks[rank][peer]: rank's end
    for a in range(size):
        for b in range(a + 1, size):
            socks[a][b], socks[b][a] = socket.socketpair()
    if transport == "inproc":
        outcomes = [None] * size

        def worker(rank):
            outcomes[rank] = _rank(rank, size, socks[rank], fn, args)

        threads = [threading.Thread(target=worker, args=(rank,))
                   for rank in range(size)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        lost = []
    else:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        procs = []
        pipes = []
        for rank in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_forked_rank,
                               args=(rank, size, socks, fn, args, child))
            proc.start()
            child.close()
            procs.append(proc)
            pipes.append(parent)
        for ends in socks:
            for sock in ends.values():
                sock.close()
        outcomes = []
        for pipe in pipes:
            try:
                outcomes.append(pipe.recv())
            except EOFError:  # the rank died without reporting
                outcomes.append(("lost", None))
            pipe.close()
        for proc in procs:
            proc.join()
        # a rank that died unreported is a root cause its peers saw only as
        # a closed connection, so its failure goes first
        lost = [TransportFailure(rank, f"exited with code {procs[rank].exitcode}")
                for rank, (status, _) in enumerate(outcomes) if status == "lost"]
    _raise_first(lost + [e for status, e in outcomes if status == "err"])
    return [payload for _, payload in outcomes]
