"""Experiment grids: a view over the spec store.

A grid — every algorithm × n × (d, δ) × failure fraction × seed — is an
ordinary list of :class:`~repro.spec.runspec.RunSpec` objects.  It runs
through :func:`~repro.store.batch.execute_batch` like any other batch,
so an artifact store is its cache (re-running a grid executes only the
missing specs), and ``processes``, ``trial_timeout``/``retries`` and
checkpoint manifests come from the one campaign job loop.  What is left
here is the view: :func:`aggregate` averages a metric over the flat rows
of :func:`~repro.store.query.flatten_record`::

    rows = [flatten_record(r) for r in execute_batch(specs, store=store)]
    means = aggregate(rows, ["algorithm", "n"], "messages")
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence


def aggregate(rows: Iterable[Dict[str, Any]], by: Sequence[str],
              value: str) -> Dict[tuple, float]:
    """Group rows by the ``by`` columns and average ``value``."""
    groups: Dict[tuple, List[float]] = {}
    for row in rows:
        key = tuple(row[column] for column in by)
        if row.get(value) is not None:
            groups.setdefault(key, []).append(float(row[value]))
    return {
        key: sum(values) / len(values) for key, values in groups.items()
    }
