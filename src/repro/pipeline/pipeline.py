"""``QSCPipeline`` — the staged driver of quantum spectral clustering.

The paper's four-step chain used to live as one opaque ``fit`` method;
this driver runs it as five composable stages
(:data:`repro.pipeline.stages.STAGE_NAMES`) over a shared
:class:`~repro.pipeline.stage.StageContext`:

* **bit-identical** — ``QSCPipeline.run(graph)`` spawns the same three RNG
  streams from the config seed and executes the same code the monolithic
  ``fit`` did, so outputs are bit-for-bit unchanged at a fixed seed
  (golden-pinned in ``tests/pipeline/test_golden.py``);
* **checkpointable** — ``run(graph, save_stages=DIR)`` publishes every
  stage into the content store rooted at ``DIR``; ``run(graph,
  resume_from="readout", save_stages=DIR)`` loads everything upstream of
  ``readout`` from it and recomputes only ``readout`` onward.  Because each
  stage owns an independent spawned stream, a resumed run equals the full
  run exactly;
* **profiled** — every stage execution is timed and bracketed with
  spectral-cache counters; the per-run profile lands in
  ``QSCResult.profile`` and the process-wide totals
  (:func:`repro.pipeline.telemetry.stage_totals`) feed the sweep runner's
  artifact field.

``QuantumSpectralClustering.fit`` is now a thin wrapper over this class.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import QSCConfig
from repro.core.qpe_engine import spectral_cache_stats
from repro.core.result import QSCResult
from repro.exceptions import ClusteringError
from repro.pipeline import checkpoint, telemetry
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import STAGE_NAMES, build_stages
from repro.store import ContentStore, active_store, configure_store
from repro.utils.rng import ensure_rng, spawn_rngs

#: Names of the per-stage RNG streams, in spawn order (the historical
#: ``fit`` spawn order — changing it would change every seeded output).
RNG_STREAMS = ("histogram", "rows", "qmeans")


class QSCPipeline:
    """Composable, checkpointable runner of the quantum clustering chain.

    Parameters
    ----------
    num_clusters:
        Cluster count k, or ``"auto"`` for histogram-native selection in
        the threshold stage.
    config:
        Pipeline tunables; ``None`` uses :class:`QSCConfig` defaults.

    Attributes
    ----------
    state:
        Stage outputs of the most recent :meth:`run` (key → value, e.g.
        ``state["backend"]`` is the QPE backend) — diagnostics passes
        reuse these instead of refitting, and a later run can resume from
        them in memory via ``upstream=pipeline.state``.
    profile:
        Per-stage telemetry of the most recent run, as the same tuple of
        dicts attached to ``QSCResult.profile``.
    """

    #: Stage vocabulary, in execution order (``--resume-from`` choices).
    stage_names = STAGE_NAMES

    def __init__(self, num_clusters, config: QSCConfig | None = None):
        if num_clusters == "auto":
            self.num_clusters = "auto"
        else:
            if int(num_clusters) < 1:
                raise ClusteringError(
                    f"num_clusters must be >= 1 or 'auto', got {num_clusters}"
                )
            self.num_clusters = int(num_clusters)
        self.config = config or QSCConfig()
        self.state: dict = {}
        self.profile: tuple = ()

    def run(
        self,
        graph,
        *,
        save_stages=None,
        resume_from: str | None = None,
        upstream: dict | None = None,
    ) -> QSCResult:
        """Execute the staged pipeline on ``graph``.

        Parameters
        ----------
        graph:
            The mixed graph to cluster.
        save_stages:
            Root of the content store (:class:`~repro.store.ContentStore`)
            to checkpoint every computed stage into and resume from
            (created if needed).  ``None`` uses the shared store when one
            is attached, and otherwise skips checkpointing.
        resume_from:
            Stage name to resume at: every stage *before* it is loaded
            from ``upstream`` / the checkpoint store instead of computed,
            and it plus everything downstream runs for real.  ``None``
            (default) computes all five stages.
        upstream:
            In-memory stage state (a previous run's ``pipeline.state``) to
            reuse instead of reading checkpoints — the zero-copy resume
            the experiment sweeps use.

        Notes
        -----
        A run uses exactly one checkpoint store: ``ContentStore(root=
        save_stages)`` when ``save_stages`` is given, otherwise the shared
        store (attached by ``QSCConfig.store_dir`` — see
        :mod:`repro.store`).  Every cleanly computed stage is published
        under its context fingerprint.  A corrupt entry is evicted and its
        stage recomputed.  An entry missing under ``save_stages`` is a
        hard error; under the shared store the stage is recomputed.

        Returns
        -------
        :class:`~repro.core.result.QSCResult` with ``result.profile``
        carrying one telemetry row per stage.
        """
        cfg = self.config
        if self.num_clusters != "auto" and self.num_clusters > graph.num_nodes:
            raise ClusteringError(
                f"cannot form {self.num_clusters} clusters from "
                f"{graph.num_nodes} nodes"
            )
        resume_index = 0
        if resume_from is not None:
            if resume_from not in STAGE_NAMES:
                raise ClusteringError(
                    f"unknown stage {resume_from!r}; stages are "
                    f"{', '.join(STAGE_NAMES)}"
                )
            resume_index = STAGE_NAMES.index(resume_from)
        # A config carrying ``store_dir`` attaches the shared content
        # store for this (worker) process — the mechanism that makes the
        # store propagate under any multiprocessing start method.
        if cfg.store_dir is not None:
            configure_store(root=cfg.store_dir)
        if save_stages is not None:
            checkpoints = ContentStore(root=save_stages)
        else:
            checkpoints = active_store()
        if resume_index > 0 and upstream is None and checkpoints is None:
            raise ClusteringError(
                f"resume_from={resume_from!r} needs checkpoints: pass "
                "save_stages, a store_dir, or an in-memory upstream state"
            )
        if resume_index > 0 and upstream is not None:
            blocked = [
                name
                for name in upstream.get("degraded_stages", ())
                if name in STAGE_NAMES and STAGE_NAMES.index(name) < resume_index
            ]
            if blocked:
                raise ClusteringError(
                    "upstream state is degraded (incomplete shards in "
                    f"{', '.join(blocked)}); resume from {blocked[0]!r} or "
                    "earlier so the degraded stage is recomputed"
                )

        master = ensure_rng(cfg.seed)
        streams = spawn_rngs(master, len(RNG_STREAMS))
        ctx = StageContext(
            graph=graph,
            config=cfg,
            requested_clusters=self.num_clusters,
            rngs=dict(zip(RNG_STREAMS, streams)),
            checkpoints=checkpoints,
        )
        reports = []
        degraded: list[str] = []
        self._run_stages(ctx, reports, degraded, resume_index, upstream, save_stages)

        if degraded:
            # Mark the state so reusing it in memory (``upstream=
            # pipeline.state``) downstream of the degradation is refused —
            # the degraded stage's outputs carry zeroed rows that are
            # otherwise indistinguishable from complete ones.
            ctx.state["degraded_stages"] = tuple(degraded)
        self.state = ctx.state
        self.profile = tuple(report.as_dict() for report in reports)
        return self._assemble(ctx)

    def _run_stages(
        self,
        ctx: StageContext,
        reports: list,
        degraded: list,
        resume_index: int,
        upstream: dict | None,
        save_stages,
    ) -> None:
        """Execute (or load) every stage, appending telemetry reports."""
        cfg = self.config
        graph = ctx.graph
        checkpoints = ctx.checkpoints
        # The graph digest is the costly part of every stage's context
        # fingerprint and the same for all of them: compute it once.
        graph_digest = checkpoint.graph_fingerprint(graph)
        for index, stage in enumerate(build_stages()):
            cache_before = spectral_cache_stats()
            start = time.perf_counter()
            ctx.shard_reports = ()
            ctx.incomplete_shards = ()
            ctx.backend_info = {}
            # The context fingerprint binds a checkpoint to everything the
            # stage's output depends on (graph content, requested k, its
            # cumulative config fields) — a different graph or an
            # upstream-relevant config change looks up a different key,
            # never stale state.  In-memory `upstream` reuse is exempt:
            # the caller explicitly hands over state it owns (the fig4
            # pattern, where only downstream fields differ).
            fingerprint = checkpoint.context_fingerprint(
                graph_digest,
                cfg,
                self.num_clusters if stage.fingerprint_clusters else None,
                stage.fingerprint_fields,
            )
            ctx.fingerprint = fingerprint
            key = checkpoint.store_key(stage.name, fingerprint)
            values = None
            source = "computed"
            if index < resume_index:
                if upstream is not None:
                    values = {key: upstream[key] for key in stage.provides}
                    source = "reused"
                else:
                    evictions = checkpoints.counters()["corrupt_evictions"]
                    payload = checkpoints.get(checkpoint.STAGE_NAMESPACE, key)
                    if payload is not None:
                        values = stage.unpack(payload, ctx)
                        source = "checkpoint"
                    elif (
                        save_stages is not None
                        and checkpoints.counters()["corrupt_evictions"] == evictions
                    ):
                        # A corrupt entry was evicted by the get above and
                        # is simply recomputed (the put below heals it).
                        # Plain absence under an explicit directory is the
                        # classic configuration error, not a silent
                        # recompute.
                        raise ClusteringError(
                            f"no checkpoint for stage {stage.name!r} in "
                            f"{save_stages}: it was never saved, or it was "
                            "written for a different run context (graph, "
                            "cluster count, or an upstream config field "
                            "changed); run with save_stages first"
                        )
            if values is None:
                values = stage.execute(ctx)
                source = "computed"
                if ctx.incomplete_shards:
                    degraded.append(stage.name)
                # A degraded sharded stage (incomplete shards) is never
                # checkpointed whole, and neither is anything downstream
                # of it: downstream outputs are computed from zeroed rows
                # yet would fingerprint exactly like complete ones.  The
                # completed shard entries remain, so a later resume
                # recomputes only what is actually missing instead of
                # silently inheriting zero rows.
                if not degraded and checkpoints is not None:
                    checkpoints.put(
                        checkpoint.STAGE_NAMESPACE, key, stage.pack(values)
                    )
            seconds = time.perf_counter() - start
            cache_after = spectral_cache_stats()
            ctx.state.update(values)
            report = telemetry.StageReport(
                stage=stage.name,
                seconds=seconds,
                source=source,
                cache_hits=cache_after["hits"] - cache_before["hits"],
                cache_misses=cache_after["misses"] - cache_before["misses"],
                shards=ctx.shard_reports,
                incomplete_shards=ctx.incomplete_shards,
                backend=ctx.backend_info.get("linalg_backend"),
                eigensolver=ctx.backend_info.get("eigensolver"),
            )
            telemetry.record_stage(report)
            reports.append(report)

    def _assemble(self, ctx: StageContext) -> QSCResult:
        """Fold the final stage state into the public result record."""
        km = ctx.state["qmeans"]
        return QSCResult(
            labels=km.labels,
            embedding=ctx.state["features"],
            row_norms=ctx.state["norms"],
            eigenvalue_histogram=ctx.state["histogram"],
            threshold=ctx.state["threshold"],
            accepted_bins=np.asarray(ctx.state["accepted"], dtype=int),
            qmeans=km,
            backend_name=ctx.state["backend"].name,
            profile=self.profile,
        )
