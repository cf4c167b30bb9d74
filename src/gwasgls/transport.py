"""Rank-addressed message passing for the distributed engine.

Two realizations of one contract: in-process ranks (threads exchanging
messages through queues) for tests and CI, and worker processes joined
pairwise by local socket pairs carrying length-prefixed binary frames.
The SPMD driver never sees which one it runs on.

Messages between a fixed ordered pair of ranks are delivered in order;
collectives are built deterministically on send/recv so two runs with the
same inputs move the same bytes in the same order, and no rank relays
another's data. A rank that ends leaves a sentinel behind its last
message to each peer, so a peer still waiting on it raises
TransportFailure instead of hanging.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading

from .errors import SizeMismatch, TransportFailure

_GONE = None  # queued behind a rank's last message once it has ended


class Transport:
    """Base contract: point-to-point send/recv plus collectives."""

    def __init__(self, rank, size, boxes):
        self.rank = rank
        self.size = size
        self.bytes_sent = 0
        self.bytes_received = 0
        # (src, dst, channel) -> queue of messages for dst; channel 1
        # carries collective traffic so it can never be confused with user
        # point-to-point messages
        self._boxes = boxes

    def _send(self, dst, data, channel):
        """Deliver data to the (self.rank, dst, channel) queue of rank dst."""
        raise NotImplementedError

    def _gone(self, src, dst):
        for channel in (0, 1):
            self._boxes[(src, dst, channel)].put(_GONE)

    def send(self, dst, data, _channel=0):
        if not 0 <= dst < self.size:
            raise TransportFailure(self.rank, f"bad destination {dst}")
        self.bytes_sent += len(data)
        self._send(dst, bytes(data), _channel)

    def recv(self, src, _channel=0):
        if not 0 <= src < self.size:
            raise TransportFailure(self.rank, f"bad source {src}")
        data = self._boxes[(src, self.rank, _channel)].get()
        if data is _GONE:
            raise TransportFailure(self.rank, f"rank {src} ended before sending")
        self.bytes_received += len(data)
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
        if len(slices) != self.size:
            raise SizeMismatch(f"alltoall needs {self.size} slices, got {len(slices)}")
        out = [None] * self.size
        out[self.rank] = bytes(slices[self.rank])
        for dst in range(self.size):
            if dst != self.rank:
                self.send(dst, slices[dst], _channel=1)
        for src in range(self.size):
            if src != self.rank:
                out[src] = self.recv(src, _channel=1)
        return out

    # object-level conveniences (pickled payloads)
    def broadcast_obj(self, root, obj=None):
        if self.rank == root:
            self.broadcast(root, pickle.dumps(obj))
            return obj
        return pickle.loads(self.broadcast(root))

    def allgather_obj(self, obj):
        return [pickle.loads(b) for b in self.allgather(pickle.dumps(obj))]

    def counters(self):
        return self.bytes_sent + self.bytes_received

    def close(self):
        pass


class InprocTransport(Transport):
    """Threaded ranks sharing one queue per ordered pair and channel."""

    def _send(self, dst, data, channel):
        self._boxes[(self.rank, dst, channel)].put(data)

    def close(self):
        for dst in range(self.size):
            self._gone(self.rank, dst)


def _frame(payload):
    return struct.pack("<Q", len(payload)) + payload


def _read_exact(sock, nbytes):
    chunks = []
    got = 0
    while got < nbytes:
        chunk = sock.recv(min(1 << 20, nbytes - got))
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_frame(sock):
    (ln,) = struct.unpack("<Q", _read_exact(sock, 8))
    return _read_exact(sock, ln)


class SocketTransport(Transport):
    """Worker-process realization: `socks[peer]` is this rank's end of the
    socket pair it shares with each other rank. A frame is an 8-byte LE
    length, the channel byte and the payload; one drain thread per peer
    queues the frames that arrive."""

    def __init__(self, rank, size, socks):
        super().__init__(rank, size, {(src, rank, ch): queue.SimpleQueue()
                                      for src in range(size) for ch in (0, 1)})
        self._socks = socks
        for peer, sock in socks.items():
            threading.Thread(target=self._drain, args=(peer, sock),
                             daemon=True).start()

    def _drain(self, peer, sock):
        try:
            while True:
                payload = _read_frame(sock)
                self._boxes[(peer, self.rank, payload[0])].put(payload[1:])
        except (ConnectionError, OSError):
            self._gone(peer, self.rank)

    def _send(self, dst, data, channel):
        if dst == self.rank:
            self._boxes[(dst, dst, channel)].put(data)
        else:
            self._socks[dst].sendall(_frame(bytes([channel]) + data))

    def close(self):
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


def _raise_first(errors):
    """Re-raise the root cause: the first error that is not a
    TransportFailure, else the first error."""
    errors = [e for e in errors if e is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, TransportFailure)),
                   errors[0])


def _socket_worker(rank, size, ends, fn, args, conn):
    for (me, _), sock in ends.items():
        if me != rank:
            sock.close()
    t = SocketTransport(rank, size, {peer: sock for (me, peer), sock
                                     in ends.items() if me == rank})
    try:
        result = fn(t, *args)
        conn.send(("ok", result))
    except BaseException as e:  # ship the failure back to the launcher
        conn.send(("err", e))
    finally:
        t.close()
        conn.close()


def run_spmd(size, fn, *args, transport="inproc"):
    """Run fn(transport, *args) on `size` ranks; returns per-rank results.

    transport="inproc" uses threads in this process; "socket" forks worker
    processes joined pairwise by local socket pairs. Every rank is joined;
    if ranks raise, the first error that is not a TransportFailure is
    re-raised here, and a socket rank that exits without reporting raises
    TransportFailure(rank, "exited with code N").
    """
    if transport == "inproc":
        mailboxes = {(s, d, ch): queue.SimpleQueue()
                     for s in range(size) for d in range(size) for ch in (0, 1)}
        results = [None] * size
        errors = [None] * size

        def _worker(rank):
            t = InprocTransport(rank, size, mailboxes)
            try:
                results[rank] = fn(t, *args)
            except BaseException as e:
                errors[rank] = e
            finally:
                t.close()

        threads = [threading.Thread(target=_worker, args=(rank,))
                   for rank in range(size)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        _raise_first(errors)
        return results

    if transport == "socket":
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        ends = {}  # (rank, peer) -> rank's end of the pair it shares with peer
        for a in range(size):
            for b in range(a + 1, size):
                ends[(a, b)], ends[(b, a)] = socket.socketpair()
        procs = []
        pipes = []
        for rank in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_socket_worker,
                               args=(rank, size, ends, fn, args, child))
            proc.start()
            child.close()
            procs.append(proc)
            pipes.append(parent)
        for sock in ends.values():
            sock.close()
        outcomes = []
        for rank, pipe in enumerate(pipes):
            try:
                outcomes.append(pipe.recv())
            except EOFError:  # the rank died without reporting
                outcomes.append(("lost", rank))
            pipe.close()
        for proc in procs:
            proc.join()
        # a rank that died unreported is a root cause its peers saw only as
        # a closed connection, so its failure goes first
        errors = [TransportFailure(rank, f"exited with code {procs[rank].exitcode}")
                  for status, rank in outcomes if status == "lost"]
        _raise_first(errors + [e for status, e in outcomes if status == "err"])
        return [payload for _, payload in outcomes]

    raise ValueError(f"unknown transport {transport!r}")
