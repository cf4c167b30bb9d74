import os
import pickle
import socket
import struct
import threading

import pytest

from gwasgls.errors import NotPositiveDefinite, SizeMismatch, TransportFailure
from gwasgls.transport import _frame, _read_frame, run_spmd


def test_single_rank_alltoall_identity():
    def body(t):
        return t.alltoall([b"payload"])
    assert run_spmd(1, body) == [[b"payload"]]


def test_broadcast_all_ranks_observe_bytes():
    def body(t):
        return t.broadcast(0, b"8bytes!!" if t.rank == 0 else b"")
    assert run_spmd(3, body) == [b"8bytes!!"] * 3


def test_ring_send_recv():
    def body(t):
        t.send((t.rank + 1) % t.size, bytes([t.rank]))
        return t.recv((t.rank + t.size - 1) % t.size)[0]
    got = run_spmd(4, body)
    assert got == [(r + 3) % 4 for r in range(4)]


def test_allgather_rank_order():
    def body(t):
        return t.allgather(bytes([t.rank]) * (t.rank + 1))
    for result in run_spmd(3, body):
        assert result == [b"\x00", b"\x01\x01", b"\x02\x02\x02"]


def test_alltoall_pairwise():
    def body(t):
        slices = [bytes([t.rank, dst]) for dst in range(t.size)]
        return t.alltoall(slices)
    for rank, result in enumerate(run_spmd(4, body)):
        assert result == [bytes([src, rank]) for src in range(4)]


def test_alltoall_size_mismatch():
    def body(t):
        t.alltoall([b""] * (t.size + 1))
    with pytest.raises(SizeMismatch):
        run_spmd(2, body)


def test_barrier_and_ordered_pairs():
    def body(t):
        # messages between a fixed pair arrive in order
        if t.rank == 0:
            for i in range(10):
                t.send(1, bytes([i]))
        t.barrier()
        if t.rank == 1:
            return [t.recv(0)[0] for i in range(10)]
        return None
    assert run_spmd(2, body)[1] == list(range(10))


def test_counters_track_traffic():
    def body(t):
        before = t.counters()
        t.broadcast(0, b"x" * 100)
        return t.counters() - before
    moved = run_spmd(3, body)
    assert all(v >= 100 for v in moved)


def _error_within(seconds, body, transport):
    """The error run_spmd(2, body) raises; fails if it has not returned
    within `seconds`, so a hang fails the test instead of the suite."""
    outcome = []

    def launch():
        try:
            run_spmd(2, body, transport=transport)
        except BaseException as e:
            outcome.append(e)

    th = threading.Thread(target=launch, daemon=True)
    th.start()
    th.join(timeout=seconds)
    assert not th.is_alive(), "run_spmd hung"
    assert len(outcome) == 1
    return outcome[0]


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_worker_exception_propagates(transport):
    # rank 0 waits for a message rank 1 never sends; the root cause, not
    # rank 0's TransportFailure, reaches the caller
    def body(t):
        if t.rank == 1:
            raise RuntimeError("boom")
        t.recv(1)

    err = _error_within(30, body, transport)
    assert isinstance(err, RuntimeError) and str(err) == "boom"


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_recv_from_ended_rank_raises(transport):
    def body(t):
        if t.rank == 0:
            t.recv(1)

    err = _error_within(30, body, transport)
    assert isinstance(err, TransportFailure) and err.rank == 0


def test_socket_rank_that_exits_unreported_is_a_transport_failure():
    # rank 1 dies without raising while rank 0 waits on it; every worker
    # is joined and the dead rank, not a bare EOFError, reaches the caller
    def body(t):
        if t.rank == 1:
            os._exit(1)
        t.recv(1)

    err = _error_within(30, body, "socket")
    assert isinstance(err, TransportFailure)
    assert (err.rank, err.reason) == (1, "exited with code 1")


def test_not_positive_definite_crosses_processes_intact():
    e = pickle.loads(pickle.dumps(NotPositiveDefinite(7)))
    assert e.pivot_index == 7
    assert str(e) == "matrix not positive definite (pivot 7)"

    def body(t):
        if t.rank == 1:
            raise NotPositiveDefinite(7)
        t.recv(1)

    err = _error_within(30, body, "socket")
    assert isinstance(err, NotPositiveDefinite) and err.pivot_index == 7
    assert str(err).count("(pivot 7)") == 1


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_allgather_sends_each_peer_one_copy(transport):
    data = b"x" * 1000

    def body(t):
        before = t.bytes_sent
        t.allgather(data)
        return t.bytes_sent - before

    assert run_spmd(3, body, transport=transport) == [2 * len(data)] * 3


@pytest.mark.parametrize("size", [1, 2, 4])
def test_socket_transport_matches_inproc(size):
    def body(t):
        gathered = t.allgather(bytes([t.rank]))
        ata = t.alltoall([bytes([t.rank, d]) for d in range(t.size)])
        return gathered, ata
    assert run_spmd(size, body, transport="socket") == run_spmd(size, body)


def test_frame_round_trip():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(_frame(b"payload"))
        assert _read_frame(b) == b"payload"


def test_frame_length_beyond_u32_is_not_truncated():
    # a u32 reader would take this header as a 1-byte frame
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack("<Q", 2**32 + 1) + b"\x01")
        a.close()
        with pytest.raises(ConnectionError):
            _read_frame(b)
