"""``QSCPipeline`` — the staged driver of quantum spectral clustering.

The paper's four-step chain used to live as one opaque ``fit`` method;
this driver runs it as five composable stages
(:data:`repro.pipeline.stages.STAGE_NAMES`) over a shared
:class:`~repro.pipeline.stage.StageContext`:

* **bit-identical** — ``QSCPipeline.run(graph)`` spawns the same three RNG
  streams from the config seed and executes the same code the monolithic
  ``fit`` did, so outputs are bit-for-bit unchanged at a fixed seed
  (golden-pinned in ``tests/pipeline/test_golden.py``);
* **checkpointable** — ``run(graph, save_stages=DIR)`` writes one
  ``<stage>.npz`` per stage; ``run(graph, resume_from="readout",
  stages_dir=DIR)`` loads everything upstream of ``readout`` from those
  files and recomputes only ``readout`` onward.  Because each stage owns an
  independent spawned stream, a resumed run equals the full run exactly;
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
from repro.store import active_store, configure_store
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
        stages_dir=None,
        upstream: dict | None = None,
    ) -> QSCResult:
        """Execute the staged pipeline on ``graph``.

        Parameters
        ----------
        graph:
            The mixed graph to cluster.
        save_stages:
            Directory to checkpoint every computed stage into (created if
            needed); ``None`` skips checkpointing.
        resume_from:
            Stage name to resume at: every stage *before* it is loaded
            from ``upstream`` / ``stages_dir`` instead of computed, and it
            plus everything downstream runs for real.  ``None`` (default)
            computes all five stages.
        stages_dir:
            Checkpoint directory to load upstream stages from; defaults
            to ``save_stages`` when resuming.
        upstream:
            In-memory stage state (a previous run's ``pipeline.state``) to
            reuse instead of reading checkpoints — the zero-copy resume
            the experiment sweeps use.

        Notes
        -----
        When the config carries ``store_dir`` (or a shared content store
        is already attached — see :mod:`repro.store`), checkpoints also
        resolve *through the store*: every cleanly computed stage is
        published under its context fingerprint, resuming falls back to
        the store when the run directory lacks (or holds a corrupt copy
        of) a stage file, and a corrupt run-dir checkpoint is evicted and
        recomputed instead of aborting the resume.  Per-run directories
        keep working unchanged as a compatibility alias.

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
        if stages_dir is None:
            stages_dir = save_stages
        # A config carrying ``store_dir`` attaches the shared content
        # store for this (worker) process — the mechanism that makes the
        # store propagate under any multiprocessing start method.
        if cfg.store_dir is not None:
            configure_store(root=cfg.store_dir)
        store = active_store()
        if resume_index > 0 and upstream is None and stages_dir is None and store is None:
            raise ClusteringError(
                f"resume_from={resume_from!r} needs checkpoints: pass "
                "stages_dir/save_stages, a store_dir, or an in-memory "
                "upstream state"
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
            save_dir=save_stages,
            load_dir=stages_dir,
        )
        reports = []
        degraded: list[str] = []
        self._run_stages(
            ctx, reports, degraded, resume_index, upstream,
            stages_dir, save_stages, store,
        )

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
        stages_dir,
        save_stages,
        store,
    ) -> None:
        """Execute (or load) every stage, appending telemetry reports."""
        cfg = self.config
        graph = ctx.graph
        for index, stage in enumerate(build_stages()):
            cache_before = spectral_cache_stats()
            start = time.perf_counter()
            ctx.shard_reports = ()
            ctx.incomplete_shards = ()
            ctx.backend_info = {}
            # The context fingerprint binds a checkpoint to everything the
            # stage's output depends on (graph content, requested k, its
            # cumulative config fields) — loading under a different graph
            # or an upstream-relevant config change is a hard error, not
            # silently stale state.  In-memory `upstream` reuse is exempt:
            # the caller explicitly hands over state it owns (the fig4
            # pattern, where only downstream fields differ).
            fingerprint = checkpoint.context_fingerprint(
                graph,
                cfg,
                self.num_clusters if stage.fingerprint_clusters else None,
                stage.fingerprint_fields,
            )
            ctx.fingerprint = fingerprint
            values = None
            source = "computed"
            if index < resume_index:
                if upstream is not None:
                    values = {key: upstream[key] for key in stage.provides}
                    source = "reused"
                else:
                    payload = None
                    corrupt = False
                    if stages_dir is not None and checkpoint.has_stage_checkpoint(
                        stages_dir, stage.name
                    ):
                        try:
                            payload = checkpoint.load_stage_payload(
                                stages_dir, stage.name, fingerprint
                            )
                        except checkpoint.CorruptCheckpointError:
                            # Corrupt checkpoints are evicted and the
                            # stage recomputed — damaged bits are never
                            # served, and the rewrite below heals the file.
                            checkpoint.evict_stage_checkpoint(
                                stages_dir, stage.name
                            )
                            corrupt = True
                    if payload is None and store is not None:
                        payload = store.get(
                            checkpoint.STAGE_NAMESPACE,
                            checkpoint.store_key(stage.name, fingerprint),
                        )
                    if payload is not None:
                        values = stage.unpack(payload, ctx)
                        source = "checkpoint"
                    elif not corrupt and store is None:
                        # The classic contract: resuming over a plainly
                        # missing run-dir checkpoint (no store attached to
                        # fall back on) is a hard error, not a silent
                        # recompute.  This call raises it.
                        checkpoint.load_stage_payload(
                            stages_dir, stage.name, fingerprint
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
                # completed shard files remain, so a later resume
                # recomputes only what is actually missing instead of
                # silently inheriting zero rows.
                if not degraded and (save_stages is not None or store is not None):
                    packed = stage.pack(values)
                    if save_stages is not None:
                        checkpoint.save_stage_payload(
                            save_stages, stage.name, packed, fingerprint
                        )
                    if store is not None:
                        store.put(
                            checkpoint.STAGE_NAMESPACE,
                            checkpoint.store_key(stage.name, fingerprint),
                            packed,
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
