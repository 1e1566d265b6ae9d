"""Outside-in tracing: spans recorded around calls into the program's layers.

Nothing inside ``src/repro`` is instrumented.  :class:`Tracer` swaps a
module or class attribute for a wrapper that records one span per call
(name, start, end, parent span, operation id) and restores the original
on :meth:`Tracer.uninstall`.  Spans stay in memory and are written out
once, when the run ends.

Three things decide where a wrapper must sit:

* a caller that did ``from module import fn`` holds its own binding, so
  the wrapper goes on the *caller's* module (``repro.pipeline.stages.qmeans``);
* ``repro.core.qmeans`` is shadowed by the function the package
  re-exports, so the q-means module is reached through ``sys.modules``;
* forked job workers inherit the wrappers, but their spans could never
  reach this process, so wrappers call straight through there and the
  service layer is measured from its event stream instead (serve_mixed).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, id]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        # Forked children inherit the patches but not a usable lock or a
        # way back to these spans; they call straight through.
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    def _open(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, time.perf_counter(), None, stack[-1][5] if stack else None, self.op]
        with self._lock:
            span.append(len(self.spans))
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, owner, attr: str, name: str, suffix=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``suffix(args, kwargs, result)`` may extend the name once the call
        returns (e.g. the store namespace and whether a lookup hit).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if suffix is not None:
                span[0] = f"{name}.{suffix(args, kwargs, result)}"
            return result

        inherited = isinstance(owner, type) and attr not in owner.__dict__
        self._patches.append((owner, attr, original, inherited))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- aggregation -------------------------------------------------------

    def totals(self, op=None, prefix: str = "") -> dict:
        """``{name: (count, seconds)}`` over closed spans of one operation."""
        out: dict = {}
        for name, start, end, _parent, span_op, _index in self.spans:
            if end is None or span_op != op or not name.startswith(prefix):
                continue
            count, seconds = out.get(name, (0, 0.0))
            out[name] = (count + 1, seconds + end - start)
        return out

    def dump(self, path, **header) -> None:
        """Write every span (and a header) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "id": i}
            for n, s, e, p, o, i in self.spans
        ]
        path.write_text(json.dumps({**header, "spans": rows}))


def install_compute_layers(tracer: Tracer) -> None:
    """Wrap the public calls of graphs/linalg/core/quantum/spectral/pipeline."""
    import numpy as np

    import repro.api
    import repro.core.readout as readout
    import repro.experiments  # noqa: F401 — loads the sweep modules below
    import repro.pipeline.checkpoint as checkpoint
    import repro.pipeline.stages as stages
    from repro.linalg.backends import DenseBackend, SparseBackend
    from repro.pipeline.pipeline import QSCPipeline

    qmeans_module = sys.modules["repro.core.qmeans"]
    tracer.wrap(
        repro.api,
        "run_experiment",
        "experiments",
        suffix=lambda args, kwargs, result: args[0],
    )
    tracer.wrap(QSCPipeline, "run", "pipeline.run")
    for stage in stages.build_stages():
        tracer.wrap(type(stage), "run", f"pipeline.stage.{stage.name}")
    tracer.wrap(checkpoint, "graph_fingerprint", "pipeline.fingerprint")
    tracer.wrap(stages, "qmeans", "core.qmeans")
    tracer.wrap(qmeans_module, "noisy_assign_labels", "core.qmeans.assign")
    tracer.wrap(stages, "make_backend", "core.make_backend")
    tracer.wrap(stages, "batched_readout", "core.readout")
    tracer.wrap(readout, "tomography_estimate_batch", "quantum.tomography")
    tracer.wrap(stages, "hermitian_laplacian", "graphs.laplacian")
    tracer.wrap(stages, "complex_to_real_features", "spectral.embedding")
    tracer.wrap(stages, "row_normalize", "spectral.embedding")
    tracer.wrap(np.linalg, "eigh", "linalg.eigh")
    tracer.wrap(DenseBackend, "lowest_eigenpairs", "linalg.lowest_eigenpairs")
    tracer.wrap(SparseBackend, "lowest_eigenpairs", "linalg.lowest_eigenpairs")
    for module_name in (
        "fig1_direction_sweep",
        "fig2_precision_sweep",
        "fig3_runtime_scaling",
        "fig4_shots_sweep",
        "table1_msbm",
        "table2_netlist",
    ):
        module = sys.modules[f"repro.experiments.{module_name}"]
        for generator in ("mixed_sbm", "cyclic_flow_sbm", "synthetic_netlist"):
            if hasattr(module, generator):
                tracer.wrap(module, generator, "graphs.generate")


def install_store_layer(tracer: Tracer) -> None:
    """Wrap the content store's get/put (namespace and hit/miss recorded)."""
    from repro.store import ContentStore

    def namespace(args, kwargs):
        return kwargs.get("namespace", args[1] if len(args) > 1 else "unknown")

    tracer.wrap(
        ContentStore,
        "get",
        "store.get",
        suffix=lambda args, kwargs, result: (
            f"{namespace(args, kwargs)}.{'miss' if result is None else 'hit'}"
        ),
    )
    tracer.wrap(
        ContentStore,
        "put",
        "store.put",
        suffix=lambda args, kwargs, result: namespace(args, kwargs),
    )
