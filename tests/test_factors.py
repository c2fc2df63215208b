import numpy as np
import pytest

from lcsmooth import factors, lie, solver
from lcsmooth.wnoa import WnoaPsd

from conftest import CFG, fd_jacobian, moderate_state, perturb, random_pose, stack_samples
from oracles import transition_matrix

N_FD = 100


@pytest.fixture
def psd():
    return WnoaPsd(1e-2, 1e-4)


LC_COV = np.diag([np.deg2rad(0.2) ** 2] * 3 + [0.02**2] * 3)
OBS_COV = np.diag([np.deg2rad(5.0) ** 2] * 2 + [0.25**2])
REL_COV = np.diag([1e-5**2] * 3 + [1e-3**2] * 3)


def one(*arrays):
    """Stack single samples into batches of one."""
    return [np.asarray(a)[None] for a in arrays]


def graph_of(states, psd, loops=(), prior_cov=CFG.prior_cov(), dt=0.1):
    """A graph at the given (pose, varpi) states, its prior on node 0 at them."""
    poses, varpis = stack_samples(states)
    graph = solver.build_graph(
        np.arange(len(poses)) * dt, poses, list(loops), psd, REL_COV, OBS_COV,
        prior_cov,
    )
    graph.varpis = varpis
    graph.prior = factors.PriorBelief(poses[0], varpis[0], graph.prior.cov)
    return graph.validate()


class TestPriorFactor:
    def test_zero_at_prior(self, rng):
        pose, varpi = moderate_state(rng)
        e, J, J_b = factors.prior(*one(pose, varpi, pose, varpi), True)
        assert np.array_equal(e, np.zeros((1, 12)))
        assert np.array_equal(J[0], np.eye(12))
        assert J_b is None

    def test_velocity_offset(self, rng):
        pose, varpi = moderate_state(rng)
        offset = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        e, _, _ = factors.prior(*one(pose, varpi, pose, varpi - offset), True)
        assert np.array_equal(e[0, 6:], offset)

    def test_jacobian_vs_finite_differences(self, rng):
        def draw():
            prior_pose = random_pose(rng)
            return (*moderate_state(rng, base=prior_pose), prior_pose, rng.normal(size=6))

        pose, varpi, prior_pose, prior_varpi = stack_samples(draw() for _ in range(N_FD))
        _, J, _ = factors.prior(pose, varpi, prior_pose, prior_varpi, True)
        J_fd = fd_jacobian(
            lambda d: factors.prior(*perturb(pose, varpi, d), prior_pose, prior_varpi, False)[0],
            N_FD,
        )
        assert np.abs(J - J_fd).max() <= 1e-6

    def test_weight_is_folded_prior_information(self, psd, rng):
        state = moderate_state(rng)
        cov = np.diag(rng.uniform(0.01, 0.1, 12))
        W = solver._linearize(graph_of([state], psd, prior_cov=cov))["prior"].W
        # at zero error the fold matrices are identities up to sign
        assert np.abs(W[0] - np.linalg.inv(cov)).max() < 1e-9

    def test_rejects_non_spd_cov(self, rng):
        with pytest.raises(ValueError, match="positive definite"):
            factors.PriorBelief(np.eye(4), np.zeros(6), -np.eye(12))


class TestWnoaFactor:
    def test_zero_on_constant_velocity(self, rng):
        varpi = rng.normal(size=6) * 0.5
        dt = 0.1
        p0 = random_pose(rng)
        p1 = p0 @ lie.se3_exp(dt * varpi)
        e, _, _ = factors.wnoa(*one(p0, varpi, p1, varpi, dt), True)
        assert np.abs(e).max() < 1e-12

    def test_jacobian_at_zero_error_is_negative_transition(self, rng):
        varpi = rng.normal(size=6) * 0.5
        dt = 0.1
        p0 = random_pose(rng)
        p1 = p0 @ lie.se3_exp(dt * varpi)
        _, J_a, _ = factors.wnoa(*one(p0, varpi, p1, varpi, dt), True)
        assert np.abs(J_a[0] + transition_matrix(varpi, dt)).max() < 1e-12

    def test_zero_velocity_identical_poses(self, rng):
        p = random_pose(rng)
        e, J_a, _ = factors.wnoa(*one(p, np.zeros(6), p, np.zeros(6), 0.5), True)
        assert np.abs(e).max() == 0.0
        assert np.allclose(J_a[0, :6, 6:], 0.5 * np.eye(6))

    def test_jacobians_vs_finite_differences(self, rng):
        def draw():
            s0 = moderate_state(rng)
            return (*s0, *moderate_state(rng, base=s0[0]), rng.uniform(0.05, 0.5))

        p0, v0, p1, v1, dt = stack_samples(draw() for _ in range(N_FD))
        _, J_a, J_b = factors.wnoa(p0, v0, p1, v1, dt, True)
        J0 = fd_jacobian(lambda d: factors.wnoa(*perturb(p0, v0, d), p1, v1, dt, False)[0], N_FD)
        J1 = fd_jacobian(lambda d: factors.wnoa(p0, v0, *perturb(p1, v1, d), dt, False)[0], N_FD)
        assert max(np.abs(J_a - J0).max(), np.abs(J_b - J1).max()) <= 1e-6


def relative_pose_fd_error(rng, noise):
    """Worst Jacobian error over N_FD samples of a noisy relative pose."""

    def draw():
        s0 = moderate_state(rng)
        s1 = moderate_state(rng, base=s0[0])
        xi = lie.se3_inv(s0[0]) @ s1[0] @ lie.se3_exp(rng.normal(size=6) * noise)
        return (*s0, *s1, xi)

    p0, v0, p1, v1, xi = stack_samples(draw() for _ in range(N_FD))
    _, J_a, J_b = factors.relative_pose(p0, p1, xi, True)
    J0 = fd_jacobian(
        lambda d: factors.relative_pose(perturb(p0, v0, d)[0], p1, xi, False)[0], N_FD
    )[..., :6]
    J1 = fd_jacobian(
        lambda d: factors.relative_pose(p0, perturb(p1, v1, d)[0], xi, False)[0], N_FD
    )[..., :6]
    return max(np.abs(J_a - J0).max(), np.abs(J_b - J1).max())


class TestLoopClosureFactor:
    def test_zero_on_consistent_measurement(self, rng):
        p1, _ = moderate_state(rng)
        p2, _ = moderate_state(rng)
        e, _, J_b = factors.relative_pose(*one(p1, p2, lie.se3_inv(p1) @ p2), True)
        assert np.abs(e).max() < 1e-12
        assert np.abs(J_b[0] - np.eye(6)).max() < 1e-9

    def test_identity_states_measure_is_error(self, rng):
        xi = rng.normal(size=6) * 0.3
        e, _, _ = factors.relative_pose(*one(np.eye(4), np.eye(4), lie.se3_exp(xi)), True)
        assert np.abs(e[0] - xi).max() < 1e-12

    def test_jacobians_vs_finite_differences(self, rng):
        assert relative_pose_fd_error(rng, 0.1) <= 1e-6

    def test_weight_folds_measurement_noise(self, psd, rng):
        # R_l = M R M^T with M = -Jr_inv at the current error
        s1 = moderate_state(rng)
        s2 = moderate_state(rng, base=s1[0])
        meas = factors.LoopClosureMeasurement(
            0, 1, lie.se3_inv(s1[0]) @ s2[0] @ lie.se3_exp(rng.normal(size=6) * 0.1),
            LC_COV,
        )
        loop = solver._linearize(graph_of([s1, s2], psd, [meas]))["loop"]
        M = -lie.right_jacobian_inv(loop.e[0])
        assert np.abs(np.linalg.inv(loop.W[0]) - M @ LC_COV @ M.T).max() < 1e-12

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError, match="idx_l1 < idx_l2"):
            factors.LoopClosureMeasurement(3, 3, np.eye(4), LC_COV)


class TestRelativePoseFactor:
    def test_zero_on_prior_trajectory(self, rng):
        p0, _ = moderate_state(rng)
        p1, _ = moderate_state(rng, base=p0)
        e, _, _ = factors.relative_pose(*one(p0, p1, lie.se3_inv(p0) @ p1), True)
        assert np.abs(e).max() < 1e-12

    def test_identity_everything(self):
        e, _, _ = factors.relative_pose(*one(np.eye(4), np.eye(4), np.eye(4)), True)
        assert np.array_equal(e, np.zeros((1, 6)))

    def test_jacobians_vs_finite_differences(self, rng):
        assert relative_pose_fd_error(rng, 0.05) <= 1e-6


class TestObservableFactor:
    def test_zero_at_prior_pose(self, rng):
        pose = random_pose(rng)
        e, _, _ = factors.observable(*one(pose, pose), True)
        assert np.abs(e).max() == 0.0

    def test_pure_yaw_offset_gives_zero(self, rng):
        base = random_pose(rng)
        yaw = lie.se3_exp(np.array([0.0, 0.0, 0.4, 0.0, 0.0, 0.0]))
        e, _, _ = factors.observable(*one(base @ yaw, base), True)
        assert np.abs(e).max() < 1e-15

    def test_depth_row_measures_world_down_offset(self, rng):
        base = random_pose(rng)
        prior_pose = base.copy()
        prior_pose[2, 3] += 0.7
        e, _, _ = factors.observable(*one(base, prior_pose), True)
        assert abs(e[0, 2] - 0.7) < 1e-12
        assert np.abs(e[0, :2]).max() < 1e-15

    def test_jacobian_vs_finite_differences_small_offsets(self, rng):
        def draw():
            base = random_pose(rng)
            d = rng.normal(size=6)
            d *= rng.uniform(0.0, 1e-3) / np.linalg.norm(d)
            return base @ lie.se3_exp(-d), rng.normal(size=6), base

        pose, varpi, base = stack_samples(draw() for _ in range(N_FD))
        _, J, _ = factors.observable(pose, base, True)
        J_fd = fd_jacobian(
            lambda d: factors.observable(perturb(pose, varpi, d)[0], base, False)[0], N_FD
        )[..., :6]
        assert np.abs(J - J_fd).max() <= 1e-4


class TestErrorsOnly:
    def test_same_errors_without_jacobians(self, rng):
        s0 = moderate_state(rng)
        s1 = moderate_state(rng, base=s0[0])
        xi = lie.se3_inv(s0[0]) @ s1[0] @ lie.se3_exp(rng.normal(size=6) * 0.1)
        calls = [
            (factors.prior, one(*s0, *s1)),
            (factors.wnoa, one(*s0, *s1, 0.2)),
            (factors.relative_pose, one(s0[0], s1[0], xi)),
            (factors.observable, one(s0[0], s1[0])),
        ]
        for fn, args in calls:
            full = fn(*args, True)
            e, J_a, J_b = fn(*args, jacobians=False)
            assert np.array_equal(e, full[0])
            assert J_a is None and J_b is None


class TestWeightProperties:
    def test_weights_spd(self, psd, rng):
        for _ in range(20):
            s0 = moderate_state(rng)
            s1 = moderate_state(rng, base=s0[0])
            meas = factors.LoopClosureMeasurement(
                0, 1, lie.se3_inv(s0[0]) @ s1[0], LC_COV
            )
            g = graph_of([s0, s1], psd, [meas])
            g.prior = factors.PriorBelief(
                random_pose(rng), rng.normal(size=6), np.eye(12) * 0.1
            )
            terms = solver._linearize(g)
            for name in ("prior", "wnoa", "loop"):
                W = terms[name].W[0]
                w = np.linalg.eigvalsh(W)
                assert w.min() > 0
                assert np.abs(W - W.T).max() < 1e-6 * w.max()
