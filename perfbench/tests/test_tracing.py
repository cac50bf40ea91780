import sys
import types

import pytest

from perfbench.layers import METRICS, layer_metrics, traced
from perfbench.tracing import (
    Patches,
    Recorder,
    Span,
    self_times,
    spanned,
    total_times,
)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, -1),
        Span("mid", 1.0, 5.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("mid", 6.0, 7.0, 0),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["mid"] == pytest.approx((4.0 - 1.0) + 1.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert total_times(spans) == pytest.approx(
        {"outer": 10.0, "mid": 5.0, "leaf": 1.0}
    )


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("p", 0.0, 4.0, -1),
        Span("c", 1.0, 3.0, 0),
        Span("c", 2.0, 5.0, 0),  # overlaps its sibling, ends past parent
    ]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_self_times_of_a_recorded_nest_add_up_to_the_root():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    c = rec.open("c")
    rec.close(c)
    rec.close(a)
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    assert sum(self_times(rec.spans).values()) == pytest.approx(
        rec.spans[0].end - rec.spans[0].start
    )
    with pytest.raises(RuntimeError):
        outer = rec.open("x")
        rec.open("y")
        rec.close(outer)


@pytest.fixture
def fake_modules():
    lib = types.ModuleType("pbfake.lib")
    user = types.ModuleType("pbfake.user")

    def work(x):
        return x + 1

    lib.work = work
    user.work = work  # as ``from pbfake.lib import work`` leaves it
    sys.modules.update({"pbfake.lib": lib, "pbfake.user": user})
    yield lib, user, work
    del sys.modules["pbfake.lib"], sys.modules["pbfake.user"]


def test_patches_reach_every_importer_and_restore(fake_modules):
    lib, user, work = fake_modules
    rec = Recorder()
    patches = Patches(("pbfake",))
    patches.function(lib, "work", spanned(
        rec, "work", lambda r, a, k, res: r.count("calls")
    ))
    assert lib.work is not work and user.work is lib.work
    assert user.work(1) == 2
    assert [s.name for s in rec.spans] == ["work"]
    assert rec.counts == {"calls": 1}
    patches.restore()
    assert lib.work is work and user.work is work
    user.work(1)
    assert len(rec.spans) == 1


def test_method_patch_restores_the_class_attribute():
    class Thing:
        def size(self):
            return 3

    original = Thing.__dict__["size"]
    rec = Recorder()
    patches = Patches(())
    patches.method(Thing, "size", spanned(rec, "size"))
    assert Thing().size() == 3 and len(rec.spans) == 1
    patches.restore()
    assert Thing.__dict__["size"] is original


def test_layer_wrappers_install_and_restore():
    import repro.montage.generator as generator
    import repro.sim as sim
    import repro.sim.executor as executor
    from repro.sweep.cache import SimCache
    from repro.workflow.dag import Workflow

    before = (executor.simulate, sim.simulate, generator.montage_workflow,
              Workflow.__dict__["fingerprint"], SimCache.__dict__["get"])
    rec = Recorder()
    with traced(rec):
        assert sim.simulate is executor.simulate is not before[0]
        wf = generator.montage_workflow(1.0)
        sim.simulate(wf, 4, record_trace=False)
        sim.simulate(wf, 4, record_trace=False)
    after = (executor.simulate, sim.simulate, generator.montage_workflow,
             Workflow.__dict__["fingerprint"], SimCache.__dict__["get"])
    assert after == before

    metrics = layer_metrics(rec)
    assert set(metrics) == set(METRICS)
    assert metrics["sim.simulate_calls"] == 2
    assert metrics["sim.kernel.warm_call_s"] > 0
    n = len(rec.spans)
    sim.simulate(wf, 4, record_trace=False)  # untraced: nothing recorded
    assert len(rec.spans) == n
