"""The program's layers as the traced run sees them.

:func:`traced` wraps the public entry point of every layer named in
``BENCHMARK.json``'s ``per_layer`` list for the length of one pass and
restores the originals on exit; :func:`layer_metrics` turns that pass's
spans and counts into the per-layer metrics.  Times are self times
(span minus the part covered by wrapped callees) unless the name says
``run_s``/``sample_s``, which are totals whose self part is reported
separately.  The ``campaign`` orchestrator, ``audit`` and
``provisioning`` layers are not wrapped.
"""

from __future__ import annotations

import contextlib
import pickle
import weakref

from perfbench.tracing import (
    GcWatch,
    Patches,
    Recorder,
    self_times,
    spanned,
    total_times,
)

#: per-layer metric name -> unit, in report order.
METRICS: dict[str, str] = {
    "experiments.question1_s": "s",
    "experiments.question2a_s": "s",
    "experiments.ccr_s": "s",
    "experiments.question2b_s": "s",
    "experiments.question3_s": "s",
    "experiments.verify_s": "s",
    "experiments.ablations_s": "s",
    "montage.build_s": "s",
    "montage.builds": "count",
    "montage.tasks": "count",
    "workflow.fingerprint_s": "s",
    "workflow.fingerprints": "count",
    "sim.simulate_s": "s",
    "sim.simulate_calls": "count",
    "sim.kernel.cold_call_s": "s",
    "sim.kernel.warm_call_s": "s",
    "sim.kernel.batch_s": "s",
    "sim.kernel.batch_configs": "count",
    "sim.kernel.montecarlo_s": "s",
    "sim.kernel.montecarlo_calls": "count",
    "sim.kernel.montecarlo_cells": "count",
    "sweep.run_jobs_s": "s",
    "sweep.cache.hits": "count",
    "sweep.cache.misses": "count",
    "sweep.cache.hit_rate": "ratio",
    "sweep.cache.put_blob_s": "s",
    "sweep.cache.get_blob_s": "s",
    "sweep.cache.blob_bytes": "B",
    "grid.run_s": "s",
    "grid.self_s": "s",
    "grid.shards": "count",
    "grid.workers": "count",
    "grid.aborted_cells": "count",
    "core.cost_s": "s",
    "core.cost_calls": "count",
    "service.summaries_s": "s",
    "service.sample_s": "s",
    "service.arrivals_s": "s",
    "service.sample_self_s": "s",
    "service.engine_s": "s",
    "service.requests": "count",
    "service.misses": "count",
    "service.hit_rate": "ratio",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead_s": "s",
}

#: spans whose metric is their total time; their self time is reported
#: under the second name.
_TOTALS = (
    ("grid.run", "grid.self_s"),
    ("service.sample", "service.sample_self_s"),
)


def _payload_bytes(payload) -> int:
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _install(patches: Patches, rec: Recorder) -> None:
    # Imported here: the caller decides when the program is loaded.
    from repro.core import costs
    from repro.experiments import (
        ablations,
        ccr,
        question1,
        question2a,
        question2b,
        question3,
        verification,
    )
    from repro.grid import engine as grid_engine
    from repro.montage import generator
    from repro.service import arrivals, scale, summaries
    from repro.sim import executor as sim_executor
    from repro.sim import kernel
    from repro.sweep import cache as sweep_cache
    from repro.sweep import executor as sweep_executor
    from repro.workflow.dag import Workflow

    fn = patches.function
    for module, name, span in (
        (question1, "run_question1", "experiments.question1"),
        (question2a, "run_question2a", "experiments.question2a"),
        (ccr, "run_ccr_sweep", "experiments.ccr"),
        (ccr, "ccr_table", "experiments.ccr"),
        (question2b, "run_question2b", "experiments.question2b"),
        (question3, "run_question3", "experiments.question3"),
        (verification, "verify_reproduction", "experiments.verify"),
        (ablations, "link_contention_study", "experiments.ablations"),
        (ablations, "failure_study", "experiments.ablations"),
        (ablations, "scheduler_study", "experiments.ablations"),
        (ablations, "storage_capacity_study", "experiments.ablations"),
        (ablations, "clustering_study", "experiments.ablations"),
        (sweep_executor, "run_jobs", "sweep.run_jobs"),
        (summaries, "summarize_mix", "service.summaries"),
        (arrivals, "poisson_arrival_array", "service.arrivals"),
    ):
        fn(module, name, spanned(rec, span))

    # A workflow object the benchmark has not seen before is a real build
    # (montage_workflow answers repeats from its memo).
    built: weakref.WeakSet = weakref.WeakSet()

    def after_build(rec, args, kwargs, wf):
        if wf not in built:
            built.add(wf)
            rec.count("montage.builds")
            rec.count("montage.tasks", len(wf))

    fn(generator, "montage_workflow",
       spanned(rec, "montage.build", after_build))

    fn(sim_executor, "simulate", spanned(
        rec, "sim.simulate",
        lambda rec, a, k, r: rec.count("sim.simulate_calls"),
    ))

    # The first kernel call on a workflow pays for its lowering.
    lowered: weakref.WeakSet = weakref.WeakSet()

    def kernel_call(args, kwargs):
        wf = args[0] if args else kwargs["workflow"]
        if wf in lowered:
            return "sim.kernel.warm_call"
        lowered.add(wf)
        return "sim.kernel.cold_call"

    fn(kernel, "run_fast_kernel", spanned(rec, kernel_call))

    def batch_name(args, kwargs):
        lowered.add(args[0] if args else kwargs["workflow"])
        return "sim.kernel.batch"

    def after_batch(rec, args, kwargs, result):
        configs = args[1] if len(args) > 1 else kwargs["configs"]
        rec.count("sim.kernel.batch_configs", len(configs))

    fn(kernel, "run_fast_kernel_batch",
       spanned(rec, batch_name, after_batch))

    def mc_name(args, kwargs):
        lowered.add(args[0] if args else kwargs["workflow"])
        return "sim.kernel.montecarlo"

    def after_mc(rec, args, kwargs, result):
        probs = args[2] if len(args) > 2 else kwargs["probabilities"]
        seeds = args[3] if len(args) > 3 else kwargs["seeds"]
        rec.count("sim.kernel.montecarlo_calls")
        rec.count("sim.kernel.montecarlo_cells", len(probs) * len(seeds))

    fn(kernel, "run_monte_carlo", spanned(rec, mc_name, after_mc))

    fn(costs, "compute_cost", spanned(
        rec, "core.cost", lambda rec, a, k, r: rec.count("core.cost_calls")
    ))

    fn(grid_engine, "run_grid", spanned(
        rec, "grid.run",
        lambda rec, a, k, r: rec.count("grid.aborted_cells", r.n_aborted),
    ))
    fn(grid_engine, "plan_shards", spanned(
        rec, None, lambda rec, a, k, r: rec.count("grid.shards", len(r))
    ))

    def after_workers(rec, args, kwargs, result):
        if rec.inside("grid.run"):
            rec.gauges["grid.workers"] = result

    fn(sweep_executor, "resolve_workers",
       spanned(rec, None, after_workers))

    def after_sample(rec, args, kwargs, sample):
        rec.count("service.requests", sample.n_requests)
        rec.count("service.misses", sample.n_misses)

    fn(scale, "sample_traffic",
       spanned(rec, "service.sample", after_sample))
    patches.method(scale.FluidServiceEngine, "run",
                   spanned(rec, "service.engine"))

    def after_lookup(rec, args, kwargs, result):
        rec.count("sweep.cache.misses" if result is None
                  else "sweep.cache.hits")

    patches.method(sweep_cache.SimCache, "get",
                   spanned(rec, None, after_lookup))
    patches.method(sweep_cache.SimCache, "get_blob",
                   spanned(rec, "sweep.cache.get_blob", after_lookup))

    def after_put(rec, args, kwargs, result):
        cache = args[0]
        if cache.directory is not None:
            payload = args[2] if len(args) > 2 else kwargs["payload"]
            rec.count("sweep.cache.blob_bytes", _payload_bytes(payload))

    patches.method(sweep_cache.SimCache, "put_blob",
                   spanned(rec, "sweep.cache.put_blob", after_put))

    patches.method(Workflow, "fingerprint", spanned(
        rec, "workflow.fingerprint",
        lambda rec, a, k, r: rec.count("workflow.fingerprints"),
    ))


@contextlib.contextmanager
def traced(rec: Recorder, extra_modules: tuple[str, ...] = ()):
    """Wrap every layer's entry points into ``rec`` while the block runs.

    ``extra_modules`` names further module prefixes (the benchmark's own
    workload code) whose imported references are swapped too.
    """
    patches = Patches(("repro", *extra_modules))
    try:
        _install(patches, rec)
        with GcWatch(rec):
            yield rec
    finally:
        patches.restore()


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer idled)."""
    own = self_times(rec.spans)
    out = {name: 0.0 for name in METRICS}
    for span, seconds in own.items():
        out[span + "_s"] = seconds
    whole = total_times(rec.spans)
    for span, self_metric in _TOTALS:
        out[self_metric] = own.get(span, 0.0)
        out[span + "_s"] = whole.get(span, 0.0)
    out.update(rec.counts)
    out.update(rec.gauges)
    lookups = out["sweep.cache.hits"] + out["sweep.cache.misses"]
    out["sweep.cache.hit_rate"] = (
        out["sweep.cache.hits"] / lookups if lookups else 0.0
    )
    requests = out["service.requests"]
    out["service.hit_rate"] = (
        1.0 - out["service.misses"] / requests if requests else 0.0
    )
    return out
