"""Shared experiment-harness utilities.

Every experiment module produces a list of :class:`TrialRecord` rows (its
sweep is declared as a :class:`~repro.experiments.runner.SweepSpec` and
executed by :class:`~repro.experiments.runner.SweepRunner`); the helpers
here aggregate those rows over seeds and render them as the markdown
tables each module's ``main()`` prints (see ``docs/experiments.md``).  A
*method* is any object with a ``fit(graph)`` returning something with a
``labels`` attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    AdjacencyKMeans,
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
)
from repro.core import QSCConfig, QuantumSpectralClustering
from repro.exceptions import ExperimentError
from repro.metrics import adjusted_rand_index, matched_accuracy
from repro.spectral import ClassicalSpectralClustering


@dataclass(frozen=True)
class TrialRecord:
    """One (method, graph-instance) evaluation.

    Attributes
    ----------
    experiment:
        Experiment id (e.g. ``"T1"``).
    method:
        Method tag.
    parameters:
        The sweep coordinates of this trial (n, k, strength, ...).
    seed:
        Trial seed.
    ari / accuracy:
        Clustering quality against ground truth; ``None`` for sweeps with
        no ground-truth labels (e.g. the F3 runtime profile, whose
        measurements live entirely in ``extra``).
    extra:
        Free-form additional measurements.
    """

    experiment: str
    method: str
    parameters: dict
    seed: int
    ari: float | None = None
    accuracy: float | None = None
    extra: dict = field(default_factory=dict)


def standard_methods(num_clusters: int, seed, quantum_config: QSCConfig | None = None,
                     theta: float | None = None) -> dict:
    """The method panel used by the comparison tables.

    Returns a mapping tag -> estimator.  The quantum entry uses the given
    config (analytic backend by default so the panel scales).
    """
    config = quantum_config or QSCConfig(seed=seed)
    if theta is not None:
        config = config.with_updates(theta=theta)
    classical_kwargs = {} if theta is None else {"theta": theta}
    return {
        "quantum": QuantumSpectralClustering(num_clusters, config),
        "classical": ClassicalSpectralClustering(
            num_clusters, seed=seed, **classical_kwargs
        ),
        "symmetrized": SymmetrizedSpectralClustering(num_clusters, seed=seed),
        "random-walk": RandomWalkSpectralClustering(num_clusters, seed=seed),
        "disim": DiSimClustering(num_clusters, seed=seed),
        "adjacency": AdjacencyKMeans(num_clusters, seed=seed),
    }


def evaluate_methods(
    experiment: str,
    methods: dict,
    graph,
    truth,
    parameters: dict,
    seed: int,
) -> list[TrialRecord]:
    """Run every method on one graph instance and score against truth."""
    records = []
    for tag, estimator in methods.items():
        labels = estimator.fit(graph).labels
        records.append(
            TrialRecord(
                experiment=experiment,
                method=tag,
                parameters=dict(parameters),
                seed=seed,
                ari=adjusted_rand_index(truth, labels),
                accuracy=matched_accuracy(truth, labels),
            )
        )
    return records


def aggregate(records: list[TrialRecord], group_keys: tuple[str, ...]):
    """Mean ± std of ARI/accuracy grouped by (method, *group_keys*).

    Returns a list of dictionaries sorted by group then method, ready for
    :func:`render_markdown_table`.
    """
    if not records:
        raise ExperimentError("no records to aggregate")
    groups: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        key = (record.method,) + tuple(record.parameters[k] for k in group_keys)
        groups.setdefault(key, []).append(record)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        bucket = groups[key]
        aris = np.array([r.ari for r in bucket])
        accs = np.array([r.accuracy for r in bucket])
        row = {"method": key[0]}
        row.update(dict(zip(group_keys, key[1:])))
        row.update(
            {
                "trials": len(bucket),
                "ari_mean": float(aris.mean()),
                "ari_std": float(aris.std()),
                "acc_mean": float(accs.mean()),
                "acc_std": float(accs.std()),
            }
        )
        rows.append(row)
    return rows


def render_markdown_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render aggregated rows as a GitHub-markdown table."""
    if not rows:
        raise ExperimentError("no rows to render")
    columns = columns or list(rows[0].keys())
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    lines = [header, rule]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
