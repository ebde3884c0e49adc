"""Seeded inputs repeat, and a failed check is a failed op."""

import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.child import Harness, end_to_end
from benchmarks.e2e.workloads import CheckFailed, OpResult, Workload


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.solver_inputs(3) == workloads.solver_inputs(3)
    assert workloads.solver_inputs(3) != workloads.solver_inputs(4)
    assert workloads.spool_inputs(3) == workloads.spool_inputs(3)
    assert workloads.spool_inputs(3) != workloads.spool_inputs(4)


def test_solver_seeds_are_distinct():
    seeds = workloads.solver_inputs(1)
    assert len(set(seeds)) == len(seeds) == workloads.MAX_OPS


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_every_spool_block_has_the_same_mix_whatever_the_seed(seed):
    hot, ops = workloads.spool_inputs(seed)
    assert len(hot) == workloads.HOT_SPECS
    for start in range(0, len(ops), workloads.BLOCK):
        block = ops[start:start + workloads.BLOCK]
        assert sum(op.hit for op in block) == workloads.HITS_PER_BLOCK
        assert sorted(op.think_ms // 10 * 10 for op in block) == list(workloads.THINK_DECADES_MS)
    misses = [op.rmcrt_seed for op in ops if not op.hit]
    assert len(set(misses)) == len(misses)          # never seen before
    assert not set(misses) & set(hot)
    assert {op.rmcrt_seed for op in ops if op.hit} <= set(hot)


class _FlakyWorkload(Workload):
    """Every third op's output fails its check; op 5 raises outright."""

    name = "flaky"
    clock = "wall"

    def run_op(self, prepared, traced=False):
        if prepared == 5:
            raise RuntimeError("solver blew up")
        return prepared

    def verify(self, prepared, out):
        if out % 3 == 0:
            raise CheckFailed("divq out of bounds")
        return OpResult(rays=10, solved=True)


def test_a_failed_check_counts_the_op_as_failed_and_gives_no_latency(capsys):
    harness = Harness(_FlakyWorkload(), ref=None)
    records = [harness.run_op(i) for i in range(9)]
    assert [r.ok for r in records] == [False, True, True, False, True, False, False, True, True]
    assert "divq out of bounds" in capsys.readouterr().err   # first failure is shown
    metrics = end_to_end(records, setup_s=1.0, rss_mb=50.0)
    ok_ms = [r.ms for r in records if r.ok]
    assert len(ok_ms) == 5
    assert metrics["ops_per_s"]["value"] == pytest.approx(5 / (sum(ok_ms) / 1e3))
    assert metrics["rays_per_s"]["value"] == pytest.approx(50 / (sum(ok_ms) / 1e3))


def test_an_op_over_its_timeout_is_failed():
    class Slow(_FlakyWorkload):
        op_timeout_s = -1.0

    assert not Harness(Slow(), ref=None).run_op(1).ok
