"""Tests for the simulated MPI fabric."""

import threading

import numpy as np
import pytest

from repro.runtime.mpi import ANY_SOURCE, ANY_TAG, SimMPI
from repro.util.errors import CommError


class TestBasics:
    def test_send_recv(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        a.send({"x": 1}, dest=1, tag=7)
        assert b.recv(source=0, tag=7) == {"x": 1}

    def test_isend_completes_eagerly(self):
        fabric = SimMPI(2)
        req = fabric.comm(0).isend(b"hi", dest=1, tag=0)
        assert req.test()

    def test_irecv_before_send(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        req = b.irecv(source=0, tag=3)
        assert not req.test()
        a.send("late", dest=1, tag=3)
        assert req.test()
        assert req.wait() == "late"

    def test_irecv_after_send(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        a.send("early", dest=1, tag=3)
        req = b.irecv(source=0, tag=3)
        assert req.test() and req.data == "early"

    def test_numpy_payload_nbytes(self):
        fabric = SimMPI(2)
        data = np.zeros(100, dtype=np.float64)
        fabric.comm(0).isend(data, dest=1, tag=0)
        req = fabric.comm(1).irecv(source=0, tag=0)
        assert req.nbytes == 800
        assert fabric.stats.bytes == 800

    def test_packed_payload_priced_as_the_sum_of_its_parts(self):
        """A multi-part message is its arrays, not a 64-byte envelope."""
        fabric = SimMPI(2)
        parts = [np.zeros(100), np.zeros((2, 3, 4)), b"12345"]
        fabric.comm(0).isend(parts, dest=1, tag=0)
        req = fabric.comm(1).irecv(source=0, tag=0)
        assert req.nbytes == fabric.stats.bytes == 800 + 192 + 5
        assert req.data is parts

    def test_self_send(self):
        fabric = SimMPI(1)
        c = fabric.comm(0)
        c.send(5, dest=0, tag=1)
        assert c.recv(source=0, tag=1) == 5


class TestMatching:
    def test_tag_selectivity(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        a.send("one", dest=1, tag=1)
        a.send("two", dest=1, tag=2)
        assert b.recv(source=0, tag=2) == "two"
        assert b.recv(source=0, tag=1) == "one"

    def test_fifo_per_source_tag(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        for i in range(5):
            a.send(i, dest=1, tag=9)
        assert [b.recv(source=0, tag=9) for _ in range(5)] == list(range(5))

    def test_any_source(self):
        fabric = SimMPI(3)
        c = fabric.comm(2)
        fabric.comm(1).send("from1", dest=2, tag=0)
        req = c.irecv(source=ANY_SOURCE, tag=0)
        assert req.wait() == "from1"
        assert req.matched_source == 1

    def test_any_tag(self):
        fabric = SimMPI(2)
        fabric.comm(0).send("x", dest=1, tag=42)
        req = fabric.comm(1).irecv(source=0, tag=ANY_TAG)
        assert req.wait() == "x"
        assert req.matched_tag == 42

    def test_probe(self):
        fabric = SimMPI(2)
        a, b = fabric.comms()
        assert not b.probe(source=0, tag=5)
        a.send("z", dest=1, tag=5)
        assert b.probe(source=0, tag=5)
        assert b.probe()  # wildcards
        b.recv(source=0, tag=5)
        assert not b.probe()


class TestErrorsAndDiagnostics:
    def test_bad_rank(self):
        with pytest.raises(CommError):
            SimMPI(0)
        fabric = SimMPI(2)
        with pytest.raises(CommError):
            fabric.comm(5)
        with pytest.raises(CommError):
            fabric.comm(0).isend(1, dest=9)
        with pytest.raises(CommError):
            fabric.comm(0).irecv(source=9)

    def test_negative_send_tag_rejected(self):
        fabric = SimMPI(2)
        with pytest.raises(CommError):
            fabric.comm(0).isend(1, dest=1, tag=-3)

    def test_wait_timeout(self):
        fabric = SimMPI(2)
        req = fabric.comm(1).irecv(source=0, tag=0)
        with pytest.raises(CommError):
            req.wait(timeout=0.01)

    def test_quiescence(self):
        fabric = SimMPI(2)
        assert fabric.quiescent()
        fabric.comm(0).isend(1, dest=1, tag=0)
        assert not fabric.quiescent()
        assert fabric.pending_messages(1) == 1
        fabric.comm(1).recv(source=0, tag=0)
        assert fabric.quiescent()

    def test_outstanding_recvs(self):
        fabric = SimMPI(2)
        fabric.comm(1).irecv(source=0, tag=0)
        assert fabric.outstanding_recvs(1) == 1

    def test_stats_accumulate(self):
        fabric = SimMPI(3)
        fabric.comm(0).isend(b"xxxx", dest=1, tag=0)
        fabric.comm(2).isend(b"yy", dest=1, tag=0)
        assert fabric.stats.messages == 2
        assert fabric.stats.bytes == 6
        assert fabric.stats.per_rank_sent == {0: 1, 2: 1}


class TestThreaded:
    def test_concurrent_senders_one_receiver(self):
        fabric = SimMPI(5)
        recv = fabric.comm(0)
        n_each = 200

        def sender(rank):
            c = fabric.comm(rank)
            for i in range(n_each):
                c.isend((rank, i), dest=0, tag=0)

        threads = [threading.Thread(target=sender, args=(r,)) for r in range(1, 5)]
        for t in threads:
            t.start()
        got = []
        for _ in range(4 * n_each):
            got.append(recv.recv(source=ANY_SOURCE, tag=0, timeout=10))
        for t in threads:
            t.join()
        assert len(got) == 4 * n_each
        # per-source FIFO preserved even under concurrency
        by_src = {}
        for rank, i in got:
            by_src.setdefault(rank, []).append(i)
        for rank, seq in by_src.items():
            assert seq == sorted(seq)

    def test_concurrent_recv_posting(self):
        fabric = SimMPI(2)
        send, recv = fabric.comm(0), fabric.comm(1)
        n = 400
        reqs = []
        lock = threading.Lock()

        def poster():
            for _ in range(n // 4):
                r = recv.irecv(source=0, tag=ANY_TAG)
                with lock:
                    reqs.append(r)

        posters = [threading.Thread(target=poster) for _ in range(4)]
        for t in posters:
            t.start()
        for i in range(n):
            send.isend(i, dest=1, tag=i)
        for t in posters:
            t.join()
        # every message eventually matches exactly one request
        vals = sorted(r.wait(timeout=10) for r in reqs)
        assert vals == list(range(n))
