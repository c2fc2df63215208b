#!/usr/bin/env python3
"""Reference scaling of build_graph + solve in the closure count L and node count n.

Not a workload: run once by hand to refresh the reference table in
bench/README.md.  From the repository root:

    python3 bench/sweep.py

Both sweeps smooth the standard seed-4 prior.  The L sweep uses the
dense_closures set-up (5,919 nodes, closures at node pairs drawn with seed
1); the n sweep varies the number of survey passes, with closures at the
crossings the front end finds on the prior.
Sizes run in increasing order, so the peak RSS after each solve is that
size's peak.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

import run

SEED = 1


def solve_row(label, lc, truth, prior, measurements):
    problem = run.Problem(lc, truth, prior)
    t0 = time.perf_counter()
    _, report = problem.solve(measurements)
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_iter = wall / max(report.iterations, 1)
    print(f"| {label} | {len(truth)} | {len(measurements)} | {wall:.2f} | "
          f"{report.iterations} | {per_iter:.2f} | {rss:.0f} |", flush=True)


def main():
    lc = run.import_program()
    sim = lc.sim
    header = "| sweep | n | L | build+solve (s) | iterations | s / iteration | peak RSS (MB) |"
    print(header)
    print("|" + " --- |" * 7)
    for passes in (2, 4, 8, 16):
        cfg = sim.default_config(seed=run.PRIOR_SEED)
        cfg.passes = passes
        truth = sim.generate_truth(cfg)
        prior = sim.degrade(truth, cfg)
        crossings = lc.frontend.detect_crossings(prior, run.PAIR_RADIUS, run.PAIR_MIN_DT)
        ms = sim.synth_loop_closures(truth, crossings, cfg.lc_sigma_phi, cfg.lc_sigma_rho,
                                     seed=SEED + 3)
        solve_row(f"n ({passes} passes)", lc, truth, prior, ms)
    cfg = sim.default_config(seed=run.PRIOR_SEED)
    truth = sim.generate_truth(cfg)
    prior = sim.degrade(truth, cfg)
    pairs = run.candidate_pairs(truth)
    for L in (8, 32, 128, 256):
        pick = np.random.default_rng(SEED).choice(len(pairs), L, replace=False)
        ms = sim.synth_loop_closures(
            truth, [run.Pair(*p) for p in pairs[np.sort(pick)]],
            cfg.lc_sigma_phi, cfg.lc_sigma_rho, seed=SEED + 3)
        solve_row("L", lc, truth, prior, ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
