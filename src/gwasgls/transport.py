"""Rank-addressed message passing for the distributed engine.

One transport class. Each pair of ranks is joined by one local socket
pair carrying one ordered stream of length-prefixed binary frames, and a
drain thread per peer queues the frames that arrive in that peer's
queue. run_spmd makes the socket pairs and runs rank 0 in the calling
thread, the others as threads of this process (transport="inproc", so
in-process spies see every rank's calls) or as forked worker processes
("socket"), with one rank body for all. The ooc engine is run_spmd on
one rank: no socket pair, and rank 0 in the calling thread.

No rank sends to itself, and nothing tags a message, so one rule keeps
point-to-point messages and collectives apart: a rank receives every
point-to-point message sent to it before it and the sender enter their
next collective. Collectives are built deterministically on send/recv
so two runs with the same inputs move the same bytes in the same order,
and no rank relays another's data. A rank that ends closes its sockets,
and its peers queue a sentinel behind its last message, so a peer still
waiting on it raises TransportFailure instead of hanging.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import queue
import socket
import struct
import sys
import threading
import traceback

from . import _blas
from .errors import ConfigError, SizeMismatch, TransportFailure

_GONE = None  # queued behind a peer's last message once it has ended

# a frame's header: the length of its payload, little endian
_HEADER = struct.Struct("<Q")


def _write_frame(sock, data):
    """Send one frame: the header, then data as it is, with no copy. An
    empty payload is not sent at all: the peer may have read the header,
    finished and closed, and a send of nothing to it would fail."""
    sock.sendall(_HEADER.pack(len(data)))
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
    """The payload of the next frame on sock."""
    (ln,) = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    return _read_exact(sock, ln)


class Transport:
    """Point-to-point send/recv plus collectives on one rank.
    `socks[peer]` is this rank's end of the socket pair it shares with
    each other rank, which a failed __init__ closes. Only the rank's own
    thread sends, so the two writes of a frame are never split by another
    frame. Made with size 1 and no sockets, every collective returns this
    rank's own data and nothing is sent."""

    def __init__(self, rank, size, socks=None):
        self.rank = rank
        self.size = size
        self.bytes_sent = 0
        self._socks, self._drains = socks or {}, []
        try:
            # peer -> the payloads it sent this rank, in order
            self._queues = {peer: queue.SimpleQueue() for peer in self._socks}
            for peer, sock in self._socks.items():
                th = threading.Thread(target=self._drain, args=(peer, sock),
                                      daemon=True)
                th.start()
                self._drains.append(th)
        except BaseException:  # such as a drain thread that cannot start
            self.close()
            raise

    def _drain(self, peer, sock):
        try:
            while True:
                self._queues[peer].put(_read_frame(sock))
        except Exception:  # a closed socket, or a length no allocation backs
            self._queues[peer].put(_GONE)

    def send(self, dst, data):
        if dst not in self._socks:
            raise TransportFailure(self.rank, f"bad destination {dst}")
        self.bytes_sent += len(data)
        try:
            _write_frame(self._socks[dst], data)
        except OSError as e:  # the peer has closed its end
            raise TransportFailure(self.rank, f"send to rank {dst}: {e}") from None

    def recv(self, src):
        if src not in self._socks:
            raise TransportFailure(self.rank, f"bad source {src}")
        data = self._queues[src].get()
        if data is _GONE:
            raise TransportFailure(self.rank, f"rank {src} ended before sending")
        return data

    def barrier(self):
        self.allgather(b"")

    def broadcast(self, root, data=b""):
        if self.rank != root:
            return self.recv(root)
        self.alltoall_start([data] * self.size)
        return data

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
                self.send(dst, slices[dst])
        return bytes(slices[self.rank])

    def alltoall_finish(self, own):
        """Second half of alltoall: the slices every rank sent this one,
        in rank order, with `own` at this rank's place."""
        return [own if src == self.rank else self.recv(src)
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


def _rank(rank, size, socks, fn, args):
    """The body of one rank, thread or process: fn on a transport over
    this rank's socket ends, which it closes when fn ends. Returns ("ok",
    result), ("err", the exception fn raised) or, if the transport does
    not start, ("lost", a TransportFailure naming the rank)."""
    try:
        t = Transport(rank, size, socks)
    except Exception as e:  # the transport has closed the ends
        return "lost", TransportFailure(rank, f"its transport did not start: {e}")
    try:
        return "ok", fn(t, *args)
    except BaseException as e:  # ship the failure back to rank 0
        return "err", e
    finally:
        t.close()


def _fork(rank, size, socks, fn, args):
    """Fork the worker of a socket rank; returns (its pid, its pipe's read
    end). The worker closes the other ranks' socket ends, runs the rank,
    writes its pickled outcome to the pipe, flushes stdout and stderr and
    exits; one that cannot report leaves the pipe empty and exits 1."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, rfd
    code = 1
    try:
        for ends in socks[:rank] + socks[rank + 1:]:
            for sock in ends.values():
                sock.close()
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(_rank(rank, size, socks[rank], fn, args)))
        code = 0
    except Exception:  # such as an outcome that does not pickle
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def _join(pid, rfd):
    """(what the worker pid wrote to its pipe, its exit code): read the
    pipe's read end rfd to EOF, close it and reap the worker."""
    with os.fdopen(rfd, "rb") as pipe:
        report = pipe.read()
    return report, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _close_ends(socks):
    """Close every socket end of the ranks' maps in socks."""
    for ends in socks:
        for sock in ends.values():
            sock.close()


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):  # closed, or None
            stream.flush()


def run_spmd(size, fn, *args, transport="inproc"):
    """Run fn(transport, *args) on `size` ranks; returns per-rank results.

    The ranks are joined pairwise by local socket pairs. Rank 0 runs in
    the calling thread; transport="inproc" runs the others as threads of
    this process, "socket" as forked worker processes. Every rank is
    joined; if ranks raise, the first error that is not a TransportFailure
    is re-raised here, and a socket rank that exits without reporting
    raises TransportFailure(rank, "exited with code N"); a rank whose
    thread or transport cannot start, a TransportFailure naming it. A size
    below 1 raises ConfigError before any rank starts. OpenBLAS is capped
    for the size while the ranks run (_blas.rank_threads).
    """
    if size < 1:
        raise ConfigError(f"need at least one rank, got {size}")
    if transport not in ("inproc", "socket"):
        raise ValueError(f"unknown transport {transport!r}")
    with _blas.rank_threads(size):
        return _launch(size, fn, args, transport)


def _launch(size, fn, args, transport):
    """Make the socket pairs of run_spmd, then run and join its ranks."""
    socks = [{} for _ in range(size)]  # socks[rank][peer]: rank's end
    for a in range(size):
        for b in range(a + 1, size):
            socks[a][b], socks[b][a] = socket.socketpair()
    outcomes = [None] * size

    def run(rank):
        outcomes[rank] = _rank(rank, size, socks[rank], fn, args)

    if transport == "inproc":
        threads = []
        for rank in range(1, size):
            th = threading.Thread(target=run, args=(rank,))
            try:
                th.start()
            except Exception as e:
                # the started ranks find the ranks that never run gone,
                # end and close their own ends
                _close_ends([socks[0]] + socks[rank:])
                for started in threads:
                    started.join()
                raise TransportFailure(rank, f"its thread did not start: {e}") from e
            threads.append(th)
        run(0)
        for th in threads:
            th.join()
    else:
        # fork before rank 0 starts a thread, and flush first, so that no
        # worker inherits output buffered here
        _flush_std_streams()
        workers = []
        try:
            for rank in range(1, size):
                workers.append(_fork(rank, size, socks, fn, args))
        except BaseException:
            # with every socket end here closed, each worker's peers are
            # gone, so it ends and reports, and is reaped
            _close_ends(socks)
            for worker in workers:
                _join(*worker)
            raise
        _close_ends(socks[1:])
        run(0)  # a worker writes its pipe only after closing its sockets
        for rank, (pid, rfd) in enumerate(workers, 1):
            report, code = _join(pid, rfd)
            outcomes[rank] = (pickle.loads(report) if report and not code else
                              ("lost", TransportFailure(rank, f"exited with code {code}")))
    # re-raise the root cause: the first error that is not a TransportFailure,
    # else a rank that died unreported or did not start, else the first
    errors = ([e for status, e in outcomes if status == "lost"]
              + [e for status, e in outcomes if status == "err"])
    if errors:
        raise next((e for e in errors if not isinstance(e, TransportFailure)),
                   errors[0])
    return [payload for _, payload in outcomes]
