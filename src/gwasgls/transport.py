"""Rank-addressed message passing for the distributed engine.

Two realizations of one contract: in-process ranks (threads exchanging
messages through queues) for tests and CI, and worker processes talking
over local sockets with length-prefixed binary frames. The SPMD driver
never sees which one it runs on.

Messages between a fixed ordered pair of ranks are delivered in order;
collectives are built deterministically on send/recv so two runs with the
same inputs move the same bytes in the same order.
"""

from __future__ import annotations

import pickle
import queue
import selectors
import socket
import struct
import threading

from .errors import SizeMismatch, TransportFailure

_BYE = 0xFFFFFFFF


def _pack_list(items):
    out = [struct.pack("<I", len(items))]
    for it in items:
        out.append(struct.pack("<Q", len(it)))
        out.append(it)
    return b"".join(out)


def _unpack_list(data):
    (count,) = struct.unpack_from("<I", data, 0)
    off = 4
    items = []
    for _ in range(count):
        (ln,) = struct.unpack_from("<Q", data, off)
        off += 8
        items.append(data[off:off + ln])
        off += ln
    return items


class Transport:
    """Base contract: point-to-point send/recv plus collectives."""

    rank: int
    size: int

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0

    # realizations implement these two; channel 1 carries collective
    # traffic so it can never be confused with user point-to-point messages
    def _send(self, dst, data, channel):
        raise NotImplementedError

    def _recv(self, src, channel):
        raise NotImplementedError

    def send(self, dst, data, _channel=0):
        if not 0 <= dst < self.size:
            raise TransportFailure(self.rank, f"bad destination {dst}")
        self.bytes_sent += len(data)
        self._send(dst, bytes(data), _channel)

    def recv(self, src, _channel=0):
        if not 0 <= src < self.size:
            raise TransportFailure(self.rank, f"bad source {src}")
        data = self._recv(src, _channel)
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
        if self.size == 1:
            return [data]
        if self.rank == 0:
            items = [data]
            for src in range(1, self.size):
                items.append(self.recv(src, _channel=1))
            self.broadcast(0, _pack_list(items))
            return items
        self.send(0, data, _channel=1)
        return _unpack_list(self.broadcast(0))

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
    """Threaded ranks exchanging messages via one queue per ordered pair."""

    def __init__(self, rank, size, mailboxes):
        super().__init__()
        self.rank = rank
        self.size = size
        self._boxes = mailboxes

    def _send(self, dst, data, channel):
        self._boxes[(self.rank, dst, channel)].put(data)

    def _recv(self, src, channel):
        return self._boxes[(src, self.rank, channel)].get()


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
    """Worker-process realization: frames are 8-byte LE length + payload,
    routed through a star router in the launching process."""

    def __init__(self, port, rank, size):
        super().__init__()
        self.rank = rank
        self.size = size
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._queues = {(src, ch): queue.Queue()
                        for src in range(size) for ch in (0, 1)}
        with self._send_lock:
            self._sock.sendall(_frame(struct.pack("<I", rank)))  # hello
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self):
        try:
            while True:
                payload = _read_frame(self._sock)
                (src,) = struct.unpack_from("<I", payload, 0)
                if src == _BYE:
                    return
                self._queues[(src, payload[4])].put(payload[5:])
        except (ConnectionError, OSError):
            pass

    def _send(self, dst, data, channel):
        with self._send_lock:
            self._sock.sendall(_frame(struct.pack("<I", dst)
                                      + bytes([channel]) + data))

    def _recv(self, src, channel):
        return self._queues[(src, channel)].get()

    def close(self):
        try:
            with self._send_lock:
                self._sock.sendall(_frame(struct.pack("<I", _BYE)))
        except OSError:
            pass


def _router(server, size):
    """Forward [dst][body] frames from each worker as [src][body] to dst."""
    conns = {}
    while len(conns) < size:
        conn, _ = server.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = _read_frame(conn)
        (rank,) = struct.unpack("<I", hello)
        conns[rank] = conn
    locks = {rank: threading.Lock() for rank in conns}
    alive = len(conns)
    sel = selectors.DefaultSelector()
    for rank, conn in conns.items():
        sel.register(conn, selectors.EVENT_READ, rank)
    done = set()
    while len(done) < size:
        for key, _ in sel.select():
            src = key.data
            if src in done:
                continue
            try:
                payload = _read_frame(key.fileobj)
            except (ConnectionError, OSError):
                done.add(src)
                sel.unregister(key.fileobj)
                continue
            (dst,) = struct.unpack_from("<I", payload, 0)
            if dst == _BYE:
                done.add(src)
                sel.unregister(key.fileobj)
                continue
            with locks[dst]:
                conns[dst].sendall(_frame(struct.pack("<I", src) + payload[4:]))
    for conn in conns.values():
        try:
            conn.close()
        except OSError:
            pass


def _socket_worker(port, rank, size, fn, args, conn):
    t = SocketTransport(port, rank, size)
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
    processes that exchange length-prefixed frames over local sockets.
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

        threads = [threading.Thread(target=_worker, args=(rank,))
                   for rank in range(size)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for e in errors:
            if e is not None:
                raise e
        return results

    if transport == "socket":
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(size)
        port = server.getsockname()[1]
        router = threading.Thread(target=_router, args=(server, size), daemon=True)
        router.start()
        procs = []
        pipes = []
        for rank in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_socket_worker,
                               args=(port, rank, size, fn, args, child))
            proc.start()
            child.close()
            procs.append(proc)
            pipes.append(parent)
        outcomes = [pipe.recv() for pipe in pipes]
        for proc in procs:
            proc.join()
        router.join(timeout=10)
        server.close()
        for status, payload in outcomes:
            if status == "err":
                raise payload
        return [payload for _, payload in outcomes]

    raise ValueError(f"unknown transport {transport!r}")
