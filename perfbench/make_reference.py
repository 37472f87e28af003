"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root at a commit whose outputs are known good:

    python3 perfbench/make_reference.py

It evaluates the candidate operation for every demo-grid cell and the
fatigue_history operation for every record variant, one process per
available core, and writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run


def _cell(cell: int) -> tuple[int, dict]:
    import workloads

    path = workloads.OUT_DIR / f"reference-cell{cell}.json"
    return cell, workloads.run_candidate(workloads.prepare(workloads.cell_inputs(cell, path)))


def _record(variant: int) -> tuple[int, dict]:
    import numpy as np
    import workloads

    inputs = workloads.record_inputs(variant, workloads.OUT_DIR / f"reference-record{variant}.csv")
    report = workloads.record_lifetime(workloads.prepare(inputs))
    # The check compares phi_critical exactly. That is sound only while the
    # critical plane leads the runner-up by more than D_max may move.
    damage = np.sort(report.damage)
    margin = (damage[-1] - damage[-2]) / damage[-1]
    if not margin > workloads.TOLERANCE["record_d_max"]:
        raise RuntimeError(f"record {variant}: critical plane leads by only {margin:.3g}")
    return variant, {**workloads.record_outputs(report), "sha256": inputs.record_sha256}


def _init(root: str) -> None:
    run.load_program(Path(root))


def main() -> int:
    root = Path.cwd()
    run.load_program(root)
    import workloads

    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    pool = ProcessPoolExecutor(
        max_workers=len(os.sched_getaffinity(0)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init,
        initargs=(str(root),),
    )
    with pool:
        records = pool.map(_record, range(workloads.RECORD_VARIANTS))
        cells = pool.map(_cell, range(1, workloads.demo_cells() + 1))
        reference = {
            "host": run.host_record(root, os.getloadavg()),
            "records": {str(k): v for k, v in records},
            "cells": {str(k): v for k, v in cells},
        }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
