"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its headline numbers (visible with
``pytest -s``).  The survey-scale criteria share one seeded standard
dataset: 8 passes, ~600 m path at 10 Hz, drift tuned to ~0.1 % of distance
traveled, loop closures from the laser front end at the 8 tie-line
crossings.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import least_squares

from lcsmooth import factors, frontend, lie, metrics, sim, solver
from lcsmooth.trajectory import Trajectory

from conftest import (
    CFG,
    close_loop,
    fd_jacobian,
    moderate_state,
    perturb,
    random_pose,
    random_twist,
    stack_samples,
)
from oracles import (
    assemble,
    error_kinematics,
    q_expansion,
    relative_error_vectors,
    se3_vee,
    se3_wedge,
    transition_matrix,
)

PSD = CFG.wnoa_psd()
R_REL = CFG.r_rel()
R_OBS = CFG.r_obs()
PRIOR_COV = CFG.prior_cov()
LC_COV = np.diag([np.deg2rad(0.2) ** 2] * 3 + [0.02**2] * 3)
LC_SIGMA_RHO = 0.02


def rel_displacement(est_poses, truth_poses, anchor):
    d_truth = lie.se3_inv(truth_poses[anchor]) @ truth_poses
    d_est = lie.se3_inv(est_poses[anchor]) @ est_poses
    E = lie.se3_inv(d_truth) @ d_est
    return np.linalg.norm(E[:, :2, 3], axis=1)


@pytest.fixture(scope="session")
def standard():
    """Standard seeded survey with front-end loop closures."""
    cfg = sim.default_config(seed=4)
    truth = sim.generate_truth(cfg)
    prior = sim.degrade(truth, cfg)
    profiles = sim.synth_scan(truth, cfg.terrain, cfg.scanner, seed=cfg.seed + 1)
    cloud, _ = frontend.register_profiles(profiles, prior)
    crossings = frontend.detect_crossings(
        prior, CFG.frontend_delta_r_star, CFG.frontend_min_time_separation
    )
    assert len(crossings) == 8
    measurements = [close_loop(prior, cloud, c)[0] for c in crossings]
    anchor = min(m.idx_l1 for m in measurements)
    prior_err = rel_displacement(prior.poses, truth.poses, anchor)
    return {
        "cfg": cfg,
        "truth": truth,
        "prior": prior,
        "profiles": profiles,
        "cloud": cloud,
        "crossings": crossings,
        "measurements": measurements,
        "anchor": anchor,
        "prior_err": prior_err,
    }


def smooth(prior, measurements, robust=True):
    graph = solver.build_graph(
        prior.times, prior.poses, measurements, PSD, R_REL, R_OBS, PRIOR_COV
    )
    return solver.solve(graph, solver.SolverConfig(robust_cost=robust))


def test_criterion_01_lie_group_suite(rng):
    t0 = time.time()
    xis = np.stack([random_twist(rng) for _ in range(1000)])
    roundtrip = np.abs(lie.se3_log(lie.se3_exp(xis)) - xis).max()
    assert roundtrip <= 1e-9

    adj_err = 0.0
    jac_err = 0.0
    mirror_err = 0.0
    for _ in range(100):
        T = random_pose(rng)
        xi = rng.normal(size=6)
        lhs = lie.adjoint(T) @ xi
        rhs = se3_vee(T @ se3_wedge(xi) @ lie.se3_inv(T))
        adj_err = max(adj_err, np.abs(lhs - rhs).max())
        zeta = random_twist(rng)
        mirror_err = max(
            mirror_err,
            np.abs(lie.left_jacobian(zeta) - lie.right_jacobian(-zeta)).max(),
        )
        jac_err = max(
            jac_err,
            np.abs(
                lie.adjoint(lie.se3_exp(zeta))
                - lie.left_jacobian(zeta) @ lie.right_jacobian_inv(zeta)
            ).max(),
        )
    elapsed = time.time() - t0
    assert adj_err <= 1e-12
    assert mirror_err <= 1e-9
    assert jac_err <= 1e-9
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 1 (Lie suite): roundtrip {roundtrip:.2e}, "
        f"adjoint {adj_err:.2e}, J-identities {max(mirror_err, jac_err):.2e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_02_jacobian_suite(rng):
    t0 = time.time()

    def draw():
        prior_pose = random_pose(rng)
        s0 = moderate_state(rng, base=prior_pose)
        s1 = moderate_state(rng, base=s0[0])
        dt = rng.uniform(0.05, 0.5)
        prior_varpi = rng.normal(size=6)
        xi_loop = lie.se3_inv(s0[0]) @ s1[0] @ lie.se3_exp(rng.normal(size=6) * 0.1)
        xi_rel = lie.se3_inv(s0[0]) @ s1[0] @ lie.se3_exp(rng.normal(size=6) * 0.05)
        base = random_pose(rng)
        d_small = rng.normal(size=6)
        d_small *= rng.uniform(0, 1e-3) / np.linalg.norm(d_small)
        sk = (base @ lie.se3_exp(-d_small), rng.normal(size=6))
        return (prior_pose, prior_varpi, *s0, *s1, dt, xi_loop, xi_rel, base, *sk)

    m = 100
    (prior_pose, prior_varpi, p0, v0, p1, v1, dt, xi_loop, xi_rel, base, pk, vk) = (
        stack_samples(draw() for _ in range(m))
    )

    def fd_pair(fn, pose_only):
        """Worst Jacobian error of a pairwise factor fn((p0, v0), (p1, v1))."""
        _, J_a, J_b = fn((p0, v0), (p1, v1))
        c = 6 if pose_only else 12
        J0 = fd_jacobian(lambda d: fn(perturb(p0, v0, d), (p1, v1))[0], m)[..., :c]
        J1 = fd_jacobian(lambda d: fn((p0, v0), perturb(p1, v1, d))[0], m)[..., :c]
        return max(np.abs(J_a - J0).max(), np.abs(J_b - J1).max())

    worst = {}
    _, J, _ = factors.prior(p0, v0, prior_pose, prior_varpi, True)
    J_fd = fd_jacobian(
        lambda d: factors.prior(*perturb(p0, v0, d), prior_pose, prior_varpi, False)[0], m
    )
    worst["prior"] = np.abs(J - J_fd).max()
    worst["wnoa"] = fd_pair(lambda a, b: factors.wnoa(*a, *b, dt, True), False)
    worst["loop"] = fd_pair(lambda a, b: factors.relative_pose(a[0], b[0], xi_loop, True), True)
    worst["rel"] = fd_pair(lambda a, b: factors.relative_pose(a[0], b[0], xi_rel, True), True)
    _, J, _ = factors.observable(pk, base, True)
    J_fd = fd_jacobian(
        lambda d: factors.observable(perturb(pk, vk, d)[0], base, False)[0], m
    )[..., :6]
    worst["obs"] = np.abs(J - J_fd).max()

    elapsed = time.time() - t0
    for name in ("prior", "wnoa", "loop", "rel"):
        assert worst[name] <= 1e-6, name
    assert worst["obs"] <= 1e-4
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 2 (factor Jacobians): "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f", {elapsed:.1f}s"
    )


def test_criterion_03_discretization_suite(rng):
    t0 = time.time()
    worst_q = 0.0
    for _ in range(100):
        v = rng.normal(size=6)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        dt = rng.uniform(0.005, 0.1)
        A, L = error_kinematics(v)
        U = L @ PSD.matrix() @ L.T
        M = np.zeros((24, 24))
        M[:12, :12] = -A
        M[:12, 12:] = U
        M[12:, 12:] = A.T
        E = expm(M * dt)
        q_exact = E[12:, 12:].T @ E[:12, 12:]
        q = q_expansion(v, PSD, dt)
        worst_q = max(worst_q, np.linalg.norm(q - q_exact) / np.linalg.norm(q_exact))

    worst_t = 0.0
    for _ in range(100):
        v = rng.normal(size=6)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        dt = rng.uniform(0.01, 1.0)
        A, _ = error_kinematics(v)
        series = np.eye(12)
        term = np.eye(12)
        for k in range(1, 30):
            term = term @ (dt * A) / k
            series = series + term
        worst_t = max(worst_t, np.abs(transition_matrix(v, dt) - series).max())
    elapsed = time.time() - t0
    assert worst_q <= 1e-6
    assert worst_t <= 1e-9
    assert elapsed < 10.0
    print(
        f"\nPASS criterion 3 (discretization): Q vs Van Loan {worst_q:.2e}, "
        f"transition vs series {worst_t:.2e}, {elapsed:.1f}s"
    )


def test_criterion_04_solver_dense_oracle(rng):
    n = 3
    dt = 0.2
    varpi = np.array([0.0, 0.0, 0.15, 1.0, 0.0, 0.02])
    truth = [lie.se3_exp(np.array([0, 0, 0.3, 1, 2, 0.5]))]
    for _ in range(n - 1):
        truth.append(truth[-1] @ lie.se3_exp(dt * varpi))
    truth = np.stack(truth)
    times = np.arange(n) * dt
    drift = np.cumsum(rng.normal(size=(n, 6)) * np.array([1e-3] * 3 + [0.02] * 3), axis=0)
    prior_poses = truth @ lie.se3_exp(-drift)
    xi = lie.se3_inv(truth[0]) @ truth[2] @ lie.se3_exp(
        rng.normal(size=6) * np.array([1e-3] * 3 + [5e-3] * 3)
    )
    meas = factors.LoopClosureMeasurement(0, 2, xi, LC_COV)
    graph = solver.build_graph(times, prior_poses, [meas], PSD, R_REL, R_OBS, PRIOR_COV)
    cfg = solver.SolverConfig(robust_cost=False, step_tolerance=1e-12)
    post, report = solver.solve(graph, cfg)
    assert report.converged
    for before, after in report.step_objectives:
        assert after <= before * (1 + 1e-12) + 1e-15

    # Brute-force dense NLLS, started from truth, iterated to the same
    # weight-refresh fixed point the solver converges to.
    def graph_at(x):
        g = graph.copy()
        g.poses = truth @ lie.se3_exp(-x.reshape(n, 12)[:, :6])
        g.varpis = np.tile(varpi, (n, 1)) + x.reshape(n, 12)[:, 6:]
        return g

    def errors_at(x):
        return assemble(graph_at(x), robust_weights=np.ones(1))[0]

    x = np.zeros(12 * n)
    for _ in range(40):
        _, _, W = assemble(graph_at(x), robust_weights=np.ones(1))
        L = np.linalg.cholesky(W.toarray())
        res = least_squares(
            lambda y: L.T @ errors_at(y), x, method="trf", jac="3-point",
            x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=5000,
        )
        step = np.abs(res.x - x).max()
        x = res.x
        if step < 1e-12:
            break
    oracle_poses = truth @ lie.se3_exp(-x.reshape(n, 12)[:, :6])
    diff = np.abs(oracle_poses - post.poses).max()
    assert diff <= 1e-6
    print(
        f"\nPASS criterion 4 (dense oracle): pose agreement {diff:.2e}, "
        f"objective monotone over {len(report.step_objectives)} steps"
    )


def test_criterion_05_drift_bounding_ablation(standard):
    t0 = time.time()
    truth, prior = standard["truth"], standard["prior"]
    measurements, anchor = standard["measurements"], standard["anchor"]
    pct_dt = 100.0 * standard["prior_err"][-1] / truth.planar_length()
    assert 0.05 < pct_dt < 0.2  # drift tuned to ~0.1 %DT

    maxima = []
    closure_errs = None
    for k in (0, 1, 3, 5, 7, 8):
        post, report = smooth(prior, measurements[:k])
        assert report.converged
        err = rel_displacement(post.poses, truth.poses, anchor)
        maxima.append(err.max())
        if k == 8:
            closure_errs = err[[m.idx_l2 for m in measurements]]
    for a, b in zip(maxima, maxima[1:]):
        assert b <= a * 1.05
    assert closure_errs.max() <= 3.0 * LC_SIGMA_RHO
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print(
        f"\nPASS criterion 5 (ablation): max err "
        + " -> ".join(f"{m:.3f}" for m in maxima)
        + f" m, closure-time max {closure_errs.max():.3f} m <= {3*LC_SIGMA_RHO} m, "
        f"{elapsed:.0f}s"
    )


def test_criterion_06_zero_closure_safety(standard):
    truth, prior = standard["truth"], standard["prior"]
    post, report = smooth(prior, [])
    assert report.converged
    err = rel_displacement(post.poses, truth.poses, standard["anchor"])
    assert err.max() <= standard["prior_err"].max() * 1.05
    print(
        f"\nPASS criterion 6 (zero-closure safety): posterior max "
        f"{err.max():.3f} m <= prior max {standard['prior_err'].max():.3f} m x1.05"
    )


def test_criterion_07_outlier_monte_carlo(standard):
    t0 = time.time()
    truth, prior = standard["truth"], standard["prior"]
    measurements, anchor = standard["measurements"], standard["anchor"]
    prior_err = standard["prior_err"]
    worst = np.zeros(len(truth))
    divergent = 0
    trials = 0
    for level in range(1, 6):
        for trial in range(30):
            corrupted = sim.inject_outliers(
                measurements, level, seed=1000 * level + trial
            )
            post, report = smooth(prior, corrupted, robust=True)
            if not report.converged:
                divergent += 1
            worst = np.maximum(
                worst, rel_displacement(post.poses, truth.poses, anchor)
            )
            trials += 1
    elapsed = time.time() - t0
    assert trials == 150
    assert divergent == 0
    # pointwise bound with a 2 mm floor: the pure ratio is degenerate at the
    # node adjacent to the anchor where both errors are ~0.1 mm
    violations = int(np.sum(worst > prior_err * 1.05 + 0.002))
    assert violations == 0
    assert elapsed < 900.0
    print(
        f"\nPASS criterion 7 (outlier Monte Carlo): 150 trials, 0 divergent, "
        f"worst-case max {worst.max():.3f} m vs prior {prior_err.max():.3f} m, "
        f"{elapsed:.0f}s"
    )


def test_criterion_08_icp_suite(rng):
    t0 = time.time()
    successes = 0
    for trial in range(100):
        trial_rng = np.random.default_rng(10_000 + trial)
        xy = trial_rng.uniform(-4, 4, size=(4000, 2))
        z = 8.0 - 1.2 * np.exp(
            -((xy[:, 0] - 1.0) ** 2 + (xy[:, 1] + 0.8) ** 2) / 2.0
        )
        z -= 0.8 * np.exp(-((xy[:, 0] + 1.4) ** 2 + (xy[:, 1] - 1.1) ** 2) / 1.2)
        pts = np.column_stack([xy, z])
        target = frontend.preprocess_submap(
            frontend.Submap(pts), CFG.icp_params(), with_normals=True
        )
        angle_axis = trial_rng.normal(size=3)
        angle_axis *= trial_rng.uniform(0, np.deg2rad(10.0)) / np.linalg.norm(angle_axis)
        trans = trial_rng.normal(size=3)
        trans *= trial_rng.uniform(0, 0.5) / np.linalg.norm(trans)
        true = lie.se3_exp(np.concatenate([angle_axis, trans]))
        source = frontend.Submap(points=(target.points - true[:3, 3]) @ true[:3, :3])
        try:
            T, report = frontend.icp_align(source, target, np.eye(4), CFG.icp_params())
        except frontend.AlignmentFailureError:
            continue
        err = lie.se3_log(lie.se3_inv(true) @ T)
        if (
            report.iterations <= 20
            and np.linalg.norm(err[:3]) <= 1e-2
            and np.linalg.norm(err[3:]) <= 1e-2
        ):
            successes += 1
    elapsed = time.time() - t0
    assert successes >= 95
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 8 (ICP suite): {successes}/100 recoveries, {elapsed:.0f}s"
    )


def test_criterion_09_self_consistency_trend(standard):
    t0 = time.time()
    cfg = standard["cfg"]
    truth, prior = standard["truth"], standard["prior"]
    assert cfg.scanner.noise_sigma == 0.01
    post, report = smooth(prior, standard["measurements"])
    posterior = Trajectory(times=prior.times, poses=post.poses)

    # The pass pairs fully overlap by construction, so the gate only needs to
    # exclude true non-overlap; the production default (5x voxel = 0.25 m)
    # would clip the prior's large bump-flank misalignments and bias its
    # median low.
    gate = 1.0

    def median_disparity(traj):
        cloud, _ = frontend.register_profiles(standard["profiles"], traj)
        samples = []
        for m in standard["measurements"]:
            center = traj.positions[m.idx_l1][:2]
            passes = []
            for idx in (m.idx_l1, m.idx_l2):
                crop = frontend.crop_world(
                    cloud, center, 5.0, t_center=traj.times[idx], window=20.0
                )
                passes.append(frontend.voxel_downsample(crop.points, 0.05))
            samples.append(metrics.point_disparity(passes, gate))
        return float(np.median(np.concatenate(samples)))

    med_prior = median_disparity(prior)
    med_post = median_disparity(posterior)
    elapsed = time.time() - t0
    assert med_post <= 0.5 * med_prior
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 9 (self-consistency): median disparity "
        f"prior {med_prior*100:.2f} cm -> posterior {med_post*100:.2f} cm, "
        f"{elapsed:.0f}s"
    )


def test_criterion_10_metric_invariance(rng):
    # invariance of the relative metric under global left-composition
    n = 30
    poses = [random_pose(rng)]
    for _ in range(n - 1):
        poses.append(poses[-1] @ lie.se3_exp(random_twist(rng, 0.3, 0.5)))
    truth = Trajectory(times=np.arange(n) * 0.5, poses=np.stack(poses))
    G = random_pose(rng)
    est = Trajectory(times=truth.times, poses=G @ truth.poses)
    rel = metrics.relative_pose_errors(est, truth, anchor=0)
    assert np.abs(rel.displacement).max() <= 1e-12
    assert np.abs(relative_error_vectors(est, truth, 0)).max() <= 1e-12

    # crossing detector equals the brute-force oracle on random trajectories
    from test_frontend import brute_force_crossings, planar_trajectory

    for trial in range(10):
        trng = np.random.default_rng(777 + trial)
        pts = np.cumsum(trng.normal(size=(250, 2)), axis=0)
        traj = planar_trajectory(pts, dt=1.0)
        got = [(c.idx1, c.idx2) for c in frontend.detect_crossings(traj, 1.5, 25.0)]
        assert got == brute_force_crossings(traj, 1.5, 25.0)
    print(
        "\nPASS criterion 10 (metric invariance): left-composition exact, "
        "crossing detector matches brute force on 10 trajectories"
    )
