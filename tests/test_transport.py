import contextlib
import errno
import os
import pickle
import socket
import struct
import sys
import threading

import pytest

from gwasgls.errors import (
    ConfigError,
    NotPositiveDefinite,
    SizeMismatch,
    TransportFailure,
)
from gwasgls.transport import Transport, _read_frame, _write_frame, run_spmd

from conftest import drain_thread, rank_thread, refuse_thread_start


@pytest.mark.parametrize("transport", ["inproc", "socket"])
@pytest.mark.parametrize("size", [0, -1])
def test_size_below_one_is_a_config_error(transport, size):
    with pytest.raises(ConfigError):
        run_spmd(size, lambda t: t.rank, transport=transport)


def test_split_alltoall_halves_overlap_in_order():
    # two exchanges in flight at once finish in the order they started
    def body(t):
        first = t.alltoall_start([bytes([t.rank, d]) for d in range(t.size)])
        second = t.alltoall_start([bytes([9, t.rank])] * t.size)
        return t.alltoall_finish(first), t.alltoall_finish(second)

    for rank, (first, second) in enumerate(run_spmd(3, body)):
        assert first == [bytes([src, rank]) for src in range(3)]
        assert second == [bytes([9, src]) for src in range(3)]


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
        # messages between a fixed pair arrive in order, and each is
        # received before the pair enters its next collective
        got = None
        if t.rank == 0:
            for i in range(10):
                t.send(1, bytes([i]))
        else:
            got = [t.recv(0)[0] for i in range(10)]
        t.barrier()
        return got
    assert run_spmd(2, body)[1] == list(range(10))


@pytest.mark.parametrize("call", ["send", "recv"])
def test_no_rank_addresses_itself(call):
    # every collective keeps a rank's own data, so a message to or from
    # the rank itself is refused, not queued where nothing would take it
    def body(t):
        if t.rank == 1:
            t.send(1, b"x") if call == "send" else t.recv(1)

    err = _error_within(10, body, "inproc")
    assert isinstance(err, TransportFailure) and err.rank == 1
    assert err.reason == ("bad destination 1" if call == "send" else "bad source 1")


def test_counters_track_traffic():
    # the root of a broadcast sends its payload to each other rank; a
    # receiver sends nothing, and neither does a barrier's empty frame
    def body(t):
        before = t.bytes_sent
        t.broadcast(0, b"x" * 100)
        t.barrier()
        return t.bytes_sent - before
    assert run_spmd(3, body) == [200, 0, 0]


def _error_within(seconds, body, transport, size=2):
    """The error run_spmd(size, body) raises; fails if it has not returned
    within `seconds`, so a hang fails the test instead of the suite."""
    outcome = []

    def launch():
        try:
            run_spmd(size, body, transport=transport)
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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_socket_rank_0_is_the_caller_and_the_others_are_forked():
    # run_spmd(3) forks two workers and runs rank 0 itself, and reaps
    # every worker before it returns
    def body(t):
        return os.getpid(), threading.get_ident()

    got = run_spmd(3, body, transport="socket")
    assert got[0] == (os.getpid(), threading.get_ident())
    workers = {pid for pid, _ in got[1:]}
    assert len(workers) == 2 and os.getpid() not in workers
    _no_child_left()


def test_inproc_rank_0_runs_on_the_calling_thread():
    def body(t):
        ident = threading.get_ident()
        t.barrier()  # every rank's thread is alive at once
        return ident

    got = run_spmd(3, body)
    assert got[0] == threading.get_ident()
    assert len(set(got)) == 3


def test_socket_rank_0_failure_reaches_the_caller_and_leaves_no_child():
    def body(t):
        if t.rank == 0:
            raise RuntimeError("boom")
        t.recv(0)

    err = _error_within(30, body, "socket")
    assert isinstance(err, RuntimeError) and str(err) == "boom"
    _no_child_left()


def test_a_fork_that_fails_mid_launch_leaves_no_worker_and_no_pipe(monkeypatch):
    # the second fork fails: the first worker, already in its barrier, is
    # ended and reaped, and every socket end and pipe end here is closed
    ends, pipes, forks = [], [], []
    real_socketpair, real_pipe, real_fork = socket.socketpair, os.pipe, os.fork

    def socketpair():
        ends.extend(real_socketpair())
        return ends[-2:]

    def pipe():
        pipes.extend(real_pipe())
        return pipes[-2:]

    def fork():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(socket, "socketpair", socketpair)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    err = _error_within(30, lambda t: t.barrier(), "socket", size=3)
    assert isinstance(err, BlockingIOError) and len(forks) == 2
    _no_child_left()
    assert len(ends) == 6 and all(end.fileno() == -1 for end in ends)
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)


def test_socket_rank_whose_outcome_does_not_pickle_is_a_transport_failure():
    def body(t):
        return threading.Lock() if t.rank == 1 else t.rank

    with pytest.raises(TransportFailure) as err:
        run_spmd(2, body, transport="socket")
    assert (err.value.rank, err.value.reason) == (1, "exited with code 1")
    _no_child_left()


def test_socket_outcomes_larger_than_a_pipe_buffer_arrive_whole():
    # each worker blocks on its pipe until the caller, done with rank 0,
    # reads it
    def body(t):
        return bytes([t.rank]) * (1 << 20)

    got = run_spmd(3, body, transport="socket")
    assert got == [bytes([rank]) * (1 << 20) for rank in range(3)]


@pytest.mark.parametrize("held", [False, True], ids=["flushed", "held"])
def test_socket_rank_output_appears_once(capfd, monkeypatch, held):
    # the caller flushes before it forks, so no worker prints again what
    # the caller held, and a worker flushes before it exits, so its own
    # line is not lost
    with os.fdopen(os.dup(1), "w") as out:  # block-buffered: not a tty
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", out)
            if held:
                print("before the launch")
            run_spmd(2, lambda t: t.rank == 1 and print("from rank 1"),
                     transport="socket")
            out.flush()
    lines = capfd.readouterr().out.splitlines()
    assert lines == ["before the launch"] * held + ["from rank 1"]


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


def test_socket_run_ending_on_an_empty_message_returns():
    # a barrier sends empty payloads: a peer that has read the header of
    # the last one may finish and close before its sender would write the
    # payload, so an empty payload must not be written at all
    for _ in range(30):
        assert run_spmd(3, lambda t: t.barrier(), transport="socket") == [None] * 3


@pytest.mark.parametrize("fails", [False, True])
def test_threaded_ranks_leave_no_thread_or_socket_behind(fails, monkeypatch):
    # each rank joins its drain threads and closes its socket ends, also
    # when a rank raises
    pairs = []
    real = socket.socketpair

    def recording():
        pairs.append(real())
        return pairs[-1]

    def body(t):
        if fails and t.rank == 2:
            raise RuntimeError("boom")
        t.barrier()

    monkeypatch.setattr(socket, "socketpair", recording)
    before = set(threading.enumerate())
    for _ in range(3):
        with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
            run_spmd(4, body)
    assert set(threading.enumerate()) <= before
    assert len(pairs) == 3 * 6
    assert all(end.fileno() == -1 for pair in pairs for end in pair)


@pytest.mark.parametrize("transport,fails", [
    ("inproc", "drain"), ("socket", "drain"), ("inproc", "rank")])
def test_a_thread_that_cannot_start_ends_the_run(transport, fails,
                                                 monkeypatch):
    # rank 1's drain of its second peer, after that of its first has
    # started, or rank 2's own thread, after rank 1's has started: the run
    # ends with a TransportFailure naming the rank, and every thread and
    # socket end of it is gone
    pairs = []
    real = socket.socketpair

    def recording():
        pairs.append(real())
        return pairs[-1]

    monkeypatch.setattr(socket, "socketpair", recording)
    before = set(threading.enumerate())
    refuse_thread_start(monkeypatch, drain_thread(1, 2) if fails == "drain"
                        else rank_thread(2))
    err = _error_within(10, lambda t: t.barrier(), transport, size=3)
    assert isinstance(err, TransportFailure), err
    assert err.rank == (1 if fails == "drain" else 2)
    assert "can't start new thread" in err.reason
    assert set(threading.enumerate()) <= before
    assert len(pairs) == 3
    assert all(end.fileno() == -1 for pair in pairs for end in pair)
    if transport == "socket":
        _no_child_left()


def test_threaded_ranks_under_frequent_thread_switches():
    # more ranks than cores, each with a drain thread per peer, switching
    # every microsecond: each pair's messages still arrive whole and in
    # order
    def body(t):
        return [t.alltoall([bytes([t.rank, dst, i]) * (i + 1)
                            for dst in range(t.size)]) for i in range(40)]

    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        th = threading.Thread(target=lambda: results.append(run_spmd(6, body)),
                              daemon=True)
        th.start()
        th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not th.is_alive(), "run_spmd hung"
    for rank, got in enumerate(results[0]):
        assert got == [[bytes([src, rank, i]) * (i + 1) for src in range(6)]
                       for i in range(40)]


def test_frame_round_trip():
    a, b = socket.socketpair()
    with a, b:
        _write_frame(a, b"payload")
        assert _read_frame(b) == b"payload"


@pytest.mark.parametrize("payload", [b"", b"payload"], ids=["empty", "seven"])
def test_frame_is_its_length_then_its_payload(payload):
    # 8 bytes of little-endian length, then the payload: no other byte
    a, b = socket.socketpair()
    with a, b:
        _write_frame(a, payload)
        a.shutdown(socket.SHUT_WR)
        wire = b""
        while chunk := b.recv(64):
            wire += chunk
    assert wire == struct.pack("<Q", len(payload)) + payload
    assert len(wire) == 8 + len(payload)


def test_frame_length_beyond_u32_is_not_truncated():
    # a u32 reader would take this header as a 1-byte frame
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack("<Q", 2**32 + 1) + b"\x01")
        a.close()
        with pytest.raises(ConnectionError):
            _read_frame(b)


@pytest.mark.parametrize("length", [2**63 + 5, 2**62],
                         ids=["overflows-ssize_t", "no-allocation"])
def test_frame_no_allocation_can_back_ends_the_stream(length):
    # reading its payload raises OverflowError or MemoryError in the drain
    # thread; a drain that died of it without queuing the sentinel would
    # leave recv from that peer waiting forever
    a, b = socket.socketpair()
    t = Transport(0, 2, {1: a})
    try:
        b.sendall(struct.pack("<Q", length))
        outcome = []

        def receive():
            try:
                t.recv(1)
            except TransportFailure as e:
                outcome.append(e)

        th = threading.Thread(target=receive, daemon=True)
        th.start()
        th.join(timeout=5)
        assert not th.is_alive(), "recv hung"
        assert len(outcome) == 1
    finally:
        b.close()
        t.close()
