"""Self time on hand-built span trees, and rebinding that undoes itself."""

import threading
import types

import pytest

from benchmarks.e2e import spans
from benchmarks.e2e.layers import op_layers
from benchmarks.e2e.spans import Recorder, Span, Target, Tracing, self_times


def _span(id, start, end, parent=None, thread=1, name="x", layer="l", counts=None):
    return Span(id, name, layer, start, end, parent, 0, thread, counts)


def test_self_time_is_duration_minus_covered_child_time():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 5.0, 9.0, parent=0),
        _span(3, 6.0, 7.0, parent=2),
    ]
    assert self_times(tree) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert sum(self_times(tree).values()) == pytest.approx(10.0)


def test_children_on_two_threads_cover_their_union():
    # execute [0, 10] with two rank threads working [1, 7] and [3, 9]
    tree = [
        _span(0, 0.0, 10.0, thread=1),
        _span(1, 1.0, 7.0, parent=0, thread=2),
        _span(2, 3.0, 9.0, parent=0, thread=3),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(2.0)          # 10 - |[1, 9]|
    assert own[1] + own[2] == pytest.approx(12.0)  # thread time, not wall


def test_a_child_outliving_its_parent_is_clipped():
    tree = [_span(0, 0.0, 5.0), _span(1, 4.0, 8.0, parent=0)]
    assert self_times(tree)[0] == pytest.approx(4.0)


def test_rank_threads_adopt_the_enclosing_span():
    recorder = Recorder()
    with recorder.span("execute", "runtime.scheduler") as execute, recorder.adopting(execute):
        worker = threading.Thread(
            target=lambda: recorder.span("task", "core.distributed").__enter__()
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["task"].parent == by_name["execute"].id
    assert by_name["task"].thread != by_name["execute"].thread


def test_op_layers_reads_counts_and_per_thread_kernel_time():
    root = _span(0, 0.0, 1.0, name="op", layer="core.distributed")
    tree = [
        root,
        _span(1, 0.0, 0.1, parent=0, name="taskgraph.compile",
              counts={"tasks": 5, "messages": 7}),
        _span(2, 0.1, 0.9, parent=0, name="scheduler.execute"),
        _span(3, 0.1, 0.5, parent=2, thread=2, name="kernels.trace"),
        _span(4, 0.2, 0.8, parent=2, thread=3, name="kernels.trace"),
        _span(5, 0.2, 0.7, parent=4, thread=3, name="dda.march",
              counts={"march_calls": 1, "rays_launched": 100, "rays_fresh": 100}),
    ]
    out = op_layers(tree, root, scale=1.0)
    assert out["taskgraph.tasks"] == 5 and out["taskgraph.messages"] == 7
    assert out["scheduler.execute_ms"] == pytest.approx(800.0)
    assert out["scheduler.kernel_ms_max_rank"] == pytest.approx(600.0)
    assert out["scheduler.overhead_frac"] == pytest.approx(0.25)
    assert out["dda.ns_per_ray"] == pytest.approx(500.0 * 1e6 / 100)
    # a calibrated op's layers are on the op's clock
    assert op_layers(tree, root, scale=0.5)["dda.march_ms"] == pytest.approx(250.0)


def test_tracing_rebinds_only_while_active_and_reports_unhit_names(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.used = lambda x: x + 1
    module.unused = lambda x: x
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)
    original = module.used
    recorder = Recorder()
    tracing = Tracing(recorder, (
        Target("fake_layer", "used", "fake.used", "fake",
               counts=lambda args, kwargs: {"calls": 1}),
        Target("fake_layer", "unused", "fake.unused", "fake"),
    ))
    with tracing.active():
        assert module.used is not original
        assert module.used(1) == 2
    assert module.used is original
    assert module.used(1) == 2
    assert [s.name for s in recorder.spans] == ["fake.used"]
    assert recorder.spans[0].counts == {"calls": 1}
    assert tracing.unhit() == ["fake_layer.unused"]


def test_every_target_names_something_importable():
    pytest.importorskip("numpy")
    pytest.importorskip("repro")
    import importlib

    groups = (spans.SINGLE_LEVEL_TARGETS, spans.MULTI_LEVEL_TARGETS,
              spans.DISTRIBUTED_TARGETS, spans.UPS_TARGETS)
    for target in {t for group in groups for t in group}:
        module, _, cls = target.owner.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert target.attr in owner.__dict__, target
