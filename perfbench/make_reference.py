#!/usr/bin/env python3
"""Regenerates perfbench/reference.json: the simulated outputs of one
episode of every workload for each reference seed, run traced so the RTEB
trace digest is pinned too. grid256-par is run alongside grid256-seq and
must reproduce it exactly on every seed.

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter simulated behaviour; a
pure speed-up must leave the file byte-identical.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run

DEFAULT_SEED = 1
HELD_BACK_SEED = 7919  # not used while the benchmark was tuned
SEEDS = list(range(64)) + [HELD_BACK_SEED]
KEYS = {"bus64": "bus64", "bus64-faults": "bus64-faults",
        "grid256": "grid256-seq"}


def entry_for(workload, seed):
    report = run.run_harness(workload, seed, 0, True)
    if report is None or len(report["outputs"]) != 1:
        sys.exit(f"{workload} seed {seed}: no clean reference run")
    return run.summary(report["outputs"][0]["outputs"], report)


def grid_entry(seed):
    seq = entry_for("grid256-seq", seed)
    par = entry_for("grid256-par", seed)
    if seq != par:
        sys.exit(f"grid256-par differs from grid256-seq on seed {seed}: "
                 f"{seq} vs {par}")
    return seq


def main():
    run.build()
    outputs = {}
    for key, workload in KEYS.items():
        fn = grid_entry if key == "grid256" else (
            lambda s, w=workload: entry_for(w, s))
        # Grid runs already use four engine threads; bus runs are serial.
        with ThreadPoolExecutor(1 if key == "grid256" else 2) as pool:
            entries = list(pool.map(fn, SEEDS))
        outputs[key] = {str(s): e for s, e in zip(SEEDS, entries)}
        run.log(f"{key}: {len(entries)} seeds")
    doc = {
        "about": "Simulated outputs of one episode per workload and seed "
                 "(perfbench/make_reference.py). outputs_sha256 covers the "
                 "per-segment frames_ok, frames_error and busy_ns, the "
                 "per-subscriber delivery counts and the SRT counters and "
                 "first-hop latency quantiles; grid256 holds for both "
                 "grid256-seq and grid256-par.",
        "default_seed": DEFAULT_SEED,
        "held_back_seed": HELD_BACK_SEED,
        "outputs": outputs,
    }
    with open(run.REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
