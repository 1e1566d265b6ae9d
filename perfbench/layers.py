"""The per-layer metrics of the traced run and what each should move.

Layers are the ``src/repro`` packages.  Every row names the public call
the tracer wraps (or the event/counter the number comes from), the
end-to-end metric it feeds, and the workload on which it carries a real
share.  ``BENCHMARK.json``'s ``per_layer`` list is exactly these rows, in
this order; every traced run checks that the names it emits match it.

A metric named ``<span>_s`` is the median, over traced operations, of
the seconds spent in spans named ``<span>`` during one operation;
``<span>_calls`` is the median count.  The workload modules derive the
others.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

CLUSTER = "op_s@cluster_1024"
SWEEPS = "op_s@paper_sweeps"
SERVE = "op_s+ops_per_s@serve_mixed"

#: (name, unit, better, wrapped call or source, moves)
LAYER_METRICS = (
    ("core.qmeans_calls", "count", "lower", "repro.pipeline.stages.qmeans", CLUSTER),
    ("core.qmeans_s", "s", "lower", "repro.pipeline.stages.qmeans", CLUSTER),
    ("core.qmeans.assign_calls", "count", "lower", "repro.core.qmeans.noisy_assign_labels", CLUSTER),
    ("core.qmeans.assign_s", "s", "lower", "repro.core.qmeans.noisy_assign_labels", CLUSTER),
    ("core.make_backend_calls", "count", "lower", "repro.pipeline.stages.make_backend", CLUSTER),
    ("core.make_backend_s", "s", "lower", "repro.pipeline.stages.make_backend", CLUSTER),
    ("core.readout_s", "s", "lower", "repro.pipeline.stages.batched_readout", CLUSTER),
    ("core.spectral_cache_hits", "count", "higher", "spectral_cache_stats() per operation", CLUSTER),
    ("core.spectral_cache_misses", "count", "lower", "spectral_cache_stats() per operation", CLUSTER),
    ("quantum.tomography_calls", "count", "lower", "repro.core.readout.tomography_estimate_batch", CLUSTER),
    ("quantum.tomography_s", "s", "lower", "repro.core.readout.tomography_estimate_batch", CLUSTER),
    ("pipeline.run_calls", "count", "lower", "QSCPipeline.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.fingerprint_calls", "count", "lower", "repro.pipeline.checkpoint.graph_fingerprint", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.fingerprint_s", "s", "lower", "repro.pipeline.checkpoint.graph_fingerprint", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage.laplacian_s", "s", "lower", "LaplacianStage.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage.threshold_s", "s", "lower", "ThresholdStage.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage.readout_s", "s", "lower", "ReadoutStage.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage.embedding_s", "s", "lower", "EmbeddingStage.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage.qmeans_s", "s", "lower", "QMeansStage.run", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.self_s", "s", "lower", "QSCPipeline.run minus stage and fingerprint spans", f"{CLUSTER},{SWEEPS}"),
    ("pipeline.stage_coverage", "ratio", "higher", "(stage + fingerprint spans) / op", f"{CLUSTER},{SWEEPS}"),
    ("linalg.eigh_calls", "count", "lower", "numpy.linalg.eigh", f"{CLUSTER},{SWEEPS}"),
    ("linalg.eigh_s", "s", "lower", "numpy.linalg.eigh", f"{CLUSTER},{SWEEPS}"),
    ("linalg.lowest_eigenpairs_calls", "count", "lower", "Dense/SparseBackend.lowest_eigenpairs", SWEEPS),
    ("linalg.lowest_eigenpairs_s", "s", "lower", "Dense/SparseBackend.lowest_eigenpairs", SWEEPS),
    ("graphs.generate_calls", "count", "lower", "experiment modules' mixed_sbm/cyclic_flow_sbm/synthetic_netlist", SWEEPS),
    ("graphs.generate_s", "s", "lower", "experiment modules' mixed_sbm/cyclic_flow_sbm/synthetic_netlist", SWEEPS),
    ("graphs.laplacian_calls", "count", "lower", "repro.pipeline.stages.hermitian_laplacian", f"{CLUSTER},{SWEEPS}"),
    ("graphs.laplacian_s", "s", "lower", "repro.pipeline.stages.hermitian_laplacian", f"{CLUSTER},{SWEEPS}"),
    ("spectral.embedding_s", "s", "lower", "stages.complex_to_real_features + row_normalize", CLUSTER),
    ("experiments.fig1_s", "s", "lower", "repro.api.run_experiment('fig1')", SWEEPS),
    ("experiments.fig2_s", "s", "lower", "repro.api.run_experiment('fig2')", SWEEPS),
    ("experiments.fig3_s", "s", "lower", "repro.api.run_experiment('fig3')", SWEEPS),
    ("experiments.fig4_s", "s", "lower", "repro.api.run_experiment('fig4')", SWEEPS),
    ("experiments.table1_s", "s", "lower", "repro.api.run_experiment('table1')", SWEEPS),
    ("experiments.table2_s", "s", "lower", "repro.api.run_experiment('table2')", SWEEPS),
    ("experiments.coverage", "ratio", "higher", "six sweep spans / pass", SWEEPS),
    ("service.submit_rtt_s", "s", "lower", "submit request round trip", SERVE),
    ("service.queue_wait_s", "s", "lower", "events: submitted -> started arrival", SERVE),
    ("service.launch_s", "s", "lower", "events: started -> attempt arrival (fresh)", SERVE),
    ("service.run_s", "s", "lower", "events: attempt -> artifact arrival (fresh)", SERVE),
    ("service.publish_s", "s", "lower", "events: artifact -> completed arrival (fresh; store write)", SERVE),
    ("service.resolve_s", "s", "lower", "submit reply -> done marker (repeat; store read)", SERVE),
    ("service.fetch_s", "s", "lower", "artifact request round trip", SERVE),
    ("service.attempts_per_job", "count", "lower", "attempt events per fresh job", SERVE),
    ("service.shed", "count", "lower", "/v1/stats load_shed delta", SERVE),
    ("service.fresh_job_s", "s", "lower", "submit -> artifact, fresh jobs", SERVE),
    ("service.fresh_job_tail_s", "s", "lower", "submit -> artifact, fresh jobs, tail", SERVE),
    ("service.fresh_jobs", "count", "higher", "fresh jobs completed", SERVE),
    ("service.repeat_job_s", "s", "lower", "submit -> artifact, repeat jobs", SERVE),
    ("service.repeat_job_tail_s", "s", "lower", "submit -> artifact, repeat jobs, tail", SERVE),
    ("service.repeat_jobs", "count", "higher", "repeat jobs completed", SERVE),
    ("store.hits_per_job", "count", "higher", "ContentStore.get returning an entry", SERVE),
    ("store.misses_per_job", "count", "lower", "ContentStore.get returning None", SERVE),
    ("store.puts_per_job", "count", "lower", "ContentStore.put", SERVE),
    ("store.get_s", "s", "lower", "ContentStore.get seconds per job", SERVE),
    ("store.put_s", "s", "lower", "ContentStore.put seconds per job", SERVE),
    ("store.repeat_served_ratio", "ratio", "higher", "repeat jobs whose artifact event says source=store", SERVE),
    ("trace.overhead_s", "s", "lower", "median of traced op minus mean of the untraced ops beside it", "all"),
    ("trace.traced_ops", "count", "higher", "operations measured with tracing on", "all"),
    ("trace.spans_per_op", "count", "lower", "spans recorded per traced operation", "all"),
)

NAMES = tuple(row[0] for row in LAYER_METRICS)
UNITS = {row[0]: row[1] for row in LAYER_METRICS}


def span_metrics(tracer, traced_ops: list) -> tuple[dict, list]:
    """Per-layer values of the compute workloads, plus each op's span totals.

    ``<span>_s`` / ``<span>_calls`` are medians over the traced ops;
    ``pipeline.self_s`` is pipeline-run time no stage or fingerprint
    span covers.
    """
    from common import median
    from repro.pipeline.stages import STAGE_NAMES

    totals = [tracer.totals(op["index"]) for op in traced_ops]

    def seconds(spans: dict, name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    values = {}
    for name in NAMES:
        if name.endswith("_calls"):
            span, index = name[: -len("_calls")], 0
        elif name.endswith("_s"):
            span, index = name[: -len("_s")], 1
        else:
            continue
        values[name] = median(spans.get(span, (0, 0.0))[index] for spans in totals)
    covered = [
        sum(seconds(spans, f"pipeline.stage.{stage}") for stage in STAGE_NAMES)
        + seconds(spans, "pipeline.fingerprint")
        for spans in totals
    ]
    values["pipeline.self_s"] = median(
        seconds(spans, "pipeline.run") - part for spans, part in zip(totals, covered)
    )
    values["pipeline.stage_coverage"] = median(
        part / op["seconds"] for op, part in zip(traced_ops, covered)
    )
    values["core.spectral_cache_hits"] = median(op["cache_hits"] for op in traced_ops)
    values["core.spectral_cache_misses"] = median(op["cache_misses"] for op in traced_ops)
    values["trace.spans_per_op"] = median(
        sum(count for count, _ in spans.values()) for spans in totals
    )
    return values, totals


def complete(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload did not exercise it."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]} for name in NAMES}


def describe(values: dict) -> list[str]:
    """Report lines: value, unit, the call wrapped and what it moves."""
    return [
        f"  {name:32s} {float(values.get(name, 0.0)):>12.6g} {unit:6s} moves {moves:34s} via {call}"
        for name, unit, _better, call, moves in LAYER_METRICS
    ]
