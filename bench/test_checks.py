"""Each of the benchmark's output checks passes on a right output and rejects
a wrong one.  Run from the repository root:

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from lcsmooth import lie, sim  # noqa: E402
import lcsmooth  # noqa: E402
import lcsmooth.cli  # noqa: E402,F401  (Problem reads the CLI defaults)


@pytest.fixture(scope="module")
def survey():
    """The standard geometry, seeded prior and closures at its 8 crossings."""
    cfg = sim.default_config(seed=7)
    truth = sim.generate_truth(cfg)
    prior = sim.degrade(truth, cfg)
    crossings = lcsmooth.frontend.detect_crossings(prior, 5.0, 30.0)
    closures = sim.synth_loop_closures(truth, crossings, cfg.lc_sigma_phi, cfg.lc_sigma_rho, seed=10)
    problem = run.Problem(lcsmooth, truth, prior)
    return cfg, truth, prior, closures, problem


@pytest.fixture(scope="module")
def scan(survey):
    """Profiles at node times over both visits of the first crossing."""
    cfg, truth, prior, closures, _ = survey
    m = closures[0]
    keep = np.zeros(len(truth), bool)
    for i in (m.idx_l1, m.idx_l2):
        keep[max(i - 60, 0) : i + 60] = True
    stamps, points = [], []
    for lo, hi in _runs(keep):
        part = lcsmooth.Trajectory(times=truth.times[lo:hi], poses=truth.poses[lo:hi])
        scanner = sim.ScannerSpec(rate=cfg.node_rate, noise_sigma=cfg.scanner.noise_sigma)
        for p in sim.synth_scan(part, cfg.terrain, scanner, seed=3):
            stamps.append(np.full(len(p.points), p.timestamp))
            points.append(p.points)
    return np.concatenate(stamps), np.vstack(points), np.array([m.idx_l1]), np.array([m.idx_l2])


def _runs(mask):
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    return zip(edges[::2], edges[1::2])


def test_profiles_on_terrain_rejects_moved_points(survey, scan):
    cfg, truth, *_ = survey
    stamps, points, *_ = scan
    args = (truth.times, truth.poses, cfg.terrain.bumps, cfg.terrain.base_depth,
            cfg.scanner.noise_sigma)
    assert checks.check_profiles_on_terrain(stamps, points, *args) == []
    moved = points + np.array([0.0, 0.0, 0.08])  # 8 cm along the sensor's range axis
    assert checks.check_profiles_on_terrain(stamps, moved, *args)


def test_closures_vs_truth_rejects_a_wrong_closure(survey):
    _, truth, _, closures, _ = survey
    idx1 = np.array([m.idx_l1 for m in closures])
    idx2 = np.array([m.idx_l2 for m in closures])
    poses = np.stack([m.xi_meas for m in closures])
    var = np.stack([np.diag(m.cov) for m in closures])
    assert checks.check_closures_vs_truth(idx1, idx2, poses, var, truth.poses) == []
    poses[3] = poses[3] @ lie.se3_exp(np.array([0, 0, 0, 0.2, 0, 0]))  # 10 sigma_rho
    assert len(checks.check_closures_vs_truth(idx1, idx2, poses, var, truth.poses)) == 1


def test_posterior_error_rejects_the_prior_as_posterior(survey):
    _, truth, prior, closures, problem = survey
    post, report = problem.solve(closures)
    clean = [False] * len(closures)
    assert problem.check(post, report, closures, clean) == []
    assert any("misses its closures" in f for f in problem.check(prior, report, closures, clean))
    anchor = min(m.idx_l1 for m in closures)
    nodes = [i for m in closures for i in (m.idx_l1, m.idx_l2)]
    for poses, passes in ((post.poses, True), (prior.poses, False)):
        err = checks.anchored_planar_error(poses, truth.poses, anchor)
        assert (checks.check_closure_nodes(err, nodes, problem.sigma_rho) == []) == passes


def test_posterior_error_rejects_a_posterior_worse_than_the_prior(survey):
    _, truth, prior, closures, problem = survey
    anchor = min(m.idx_l1 for m in closures)
    prior_err = checks.anchored_planar_error(prior.poses, truth.poses, anchor)
    assert checks.check_posterior_error(prior_err, prior_err, problem.sigma_rho) == []
    # the prior with extra planar drift, 1 mm per node from the anchor on
    drifted = prior.poses.copy()
    steps = np.arange(len(drifted)) - anchor
    drifted[anchor:, 0, 3] += 1e-3 * steps[anchor:]
    post_err = checks.anchored_planar_error(drifted, truth.poses, anchor)
    assert checks.check_posterior_error(post_err, prior_err, problem.sigma_rho)


def test_disparity_rejects_the_prior_as_posterior(survey, scan):
    _, truth, prior, _, _ = survey
    stamps, points, i1, i2 = scan
    p50 = {
        name: checks.median_disparity(stamps, points, truth.times, poses, i1, i2)
        for name, poses in (("truth", truth.poses), ("prior", prior.poses))
    }
    assert p50["prior"] > p50["truth"]
    assert checks.check_disparity(p50["truth"], p50["prior"], p50["truth"]) == []
    assert checks.check_disparity(p50["prior"], p50["prior"], p50["truth"])


def test_weights_reject_an_outlier_left_at_full_weight(survey):
    _, _, _, closures, problem = survey
    corrupted = sim.inject_outliers(closures, 2, seed=2001)
    mask = [c is not m for c, m in zip(corrupted, closures)]
    post, report = problem.solve(corrupted)
    assert problem.check(post, report, corrupted, mask) == []
    # the same outliers without the robust cost keep full weight
    problem.config = lcsmooth.solver.SolverConfig(robust_cost=False)
    try:
        post, report = problem.solve(corrupted)
    finally:
        problem.config = run.Problem(lcsmooth, problem.truth, problem.prior).config
    fails = problem.check(post, report, corrupted, mask)
    assert sum("injected outlier" in f for f in fails) == 2
