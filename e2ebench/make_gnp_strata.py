"""Regenerate ``gnp_strata.json``: the outcome of every campaign G(n,p)
cell for spec seeds ``0 .. GNP["seeds"]-1``.

The campaign draws its G(n,p) seeds per stratum from this table (see
``workloads._gnp_seeds``), so the inputs stay fixed whatever the code
under test does with them.  Run from the repository root:

    python3 e2ebench/make_gnp_strata.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.spec.builder import execute  # noqa: E402

from workloads import GNP, STRATA_PATH, gossip_spec  # noqa: E402

#: Simulated messages above which a run is its own stratum: step-limit
#: runs send either ~16k messages (~2 s) or several 100k (~6 s).
HEAVY = 100_000

CELLS = [f"{a}/{c}" for a in ("ears", "sears", "tears", "ps-push-pull")
         for c in ("calm", "crash")]


def _outcome(job):
    """The run's stop reason, marked ``+heavy`` past HEAVY messages."""
    cell, seed = job
    algorithm, condition = cell.split("/")
    spec = gossip_spec(algorithm, GNP["n"], seed, condition, topology="gnp")
    run = execute(spec)
    return run.reason + ("+heavy" if run.messages > HEAVY else "")


def main() -> None:
    jobs = [(cell, seed) for cell in CELLS for seed in range(GNP["seeds"])]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        outcomes = pool.map(_outcome, jobs, chunksize=4)
    cells = {cell: {} for cell in CELLS}
    for (cell, seed), outcome in zip(jobs, outcomes):
        if outcome != "completed":
            cells[cell].setdefault(outcome, []).append(seed)
    lines = [f'  "{cell}": {json.dumps(cells[cell], sort_keys=True)}'
             for cell in CELLS]
    with open(STRATA_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"gnp": %s,\n "cells": {\n%s\n}}\n'
                     % (json.dumps(GNP, sort_keys=True), ",\n".join(lines)))


if __name__ == "__main__":
    main()
