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


def off_so3(rng, pose, size):
    """``pose`` with its rotation block moved off SO(3) by about ``size``, as
    the products in ``sim.degrade`` leave dead-reckoned poses (up to 4e-10)."""
    out = pose.copy()
    out[:3, :3] += rng.normal(size=(3, 3)) * size
    return out


def graph_of(states, psd, loops=(), prior_cov=CFG.prior_cov(), dt=0.1):
    """A graph at the given (pose, varpi) states, its prior on node 0 at them."""
    poses, varpis = stack_samples(states)
    graph = solver.build_graph(
        np.arange(len(poses)) * dt, poses, list(loops), psd, REL_COV, OBS_COV,
        prior_cov,
    )
    graph.varpis = varpis
    graph.prior_varpi = varpis[0]
    return graph.validate()


class TestPriorFactor:
    def test_zero_at_prior(self, rng):
        pose, varpi = moderate_state(rng)
        e, J, J_b = factors.prior(*one(pose, varpi, pose, varpi))
        assert np.array_equal(e, np.zeros((1, 12)))
        assert np.array_equal(J[0], np.eye(12))
        assert J_b is None

    def test_velocity_offset(self, rng):
        pose, varpi = moderate_state(rng)
        offset = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        e, _, _ = factors.prior(*one(pose, varpi, pose, varpi - offset))
        assert np.array_equal(e[0, 6:], offset)

    def test_jacobian_vs_finite_differences(self, rng):
        def draw():
            prior_pose = random_pose(rng)
            return (*moderate_state(rng, base=prior_pose), prior_pose, rng.normal(size=6))

        pose, varpi, prior_pose, prior_varpi = stack_samples(draw() for _ in range(N_FD))
        _, J, _ = factors.prior(pose, varpi, prior_pose, prior_varpi)
        J_fd = fd_jacobian(
            lambda d: factors.prior(*perturb(pose, varpi, d), prior_pose, prior_varpi)[0],
            N_FD,
        )
        assert np.abs(J - J_fd).max() <= 1e-6

    def test_pose_part_is_relative_pose(self, rng):
        prior_pose = np.stack([random_pose(rng) for _ in range(N_FD)])
        pose, varpi = stack_samples(moderate_state(rng, base=p) for p in prior_pose)
        e, J, _ = factors.prior(pose, varpi, prior_pose, rng.normal(size=(N_FD, 6)))
        e_xi, _, J_b = factors.relative_pose(prior_pose, pose, np.eye(4))
        assert np.array_equal(e[:, :6], e_xi)
        assert np.array_equal(J[:, :6, :6], J_b)

    def test_weight_is_folded_prior_information(self, psd, rng):
        state = moderate_state(rng)
        cov = np.diag(rng.uniform(0.01, 0.1, 12))
        W = solver._linearize(graph_of([state], psd, prior_cov=cov))["prior"].W
        # at zero error the fold matrices are identities up to sign
        assert np.abs(W[0] - np.linalg.inv(cov)).max() < 1e-9

    def test_rejects_non_spd_cov(self, psd):
        with pytest.raises(ValueError, match="prior covariance is not positive definite"):
            solver.build_graph([0.0], np.eye(4)[None], [], psd, REL_COV, OBS_COV, -np.eye(12))


class TestWnoaFactor:
    def test_zero_on_constant_velocity(self, rng):
        varpi = rng.normal(size=6) * 0.5
        dt = 0.1
        p0 = random_pose(rng)
        p1 = p0 @ lie.se3_exp(dt * varpi)
        e, _, _ = factors.wnoa(*one(p0, varpi, p1, varpi, dt))
        assert np.abs(e).max() < 1e-12

    def test_jacobian_at_zero_error_is_negative_transition(self, rng):
        varpi = rng.normal(size=6) * 0.5
        dt = 0.1
        p0 = random_pose(rng)
        p1 = p0 @ lie.se3_exp(dt * varpi)
        _, J_a, _ = factors.wnoa(*one(p0, varpi, p1, varpi, dt))
        assert np.abs(J_a[0] + transition_matrix(varpi, dt)).max() < 1e-12

    def test_zero_velocity_identical_poses(self, rng):
        p = random_pose(rng)
        e, J_a, _ = factors.wnoa(*one(p, np.zeros(6), p, np.zeros(6), 0.5))
        assert np.abs(e).max() == 0.0
        assert np.allclose(J_a[0, :6, 6:], 0.5 * np.eye(6))

    def test_pose_part_is_relative_pose(self, rng):
        p0, v0 = stack_samples(moderate_state(rng) for _ in range(N_FD))
        p1, v1 = stack_samples(moderate_state(rng, base=p) for p in p0)
        dt = rng.uniform(0.05, 0.5, N_FD)
        e, J_a, J_b = factors.wnoa(p0, v0, p1, v1, dt)
        e_xi, P_a, P_b = factors.relative_pose(p0, p1, lie.se3_exp(dt[:, None] * v0))
        assert np.array_equal(e[:, :6], e_xi)
        assert np.array_equal(J_a[:, :6, :6], P_a)
        assert np.array_equal(J_b[:, :6, :6], P_b)

    def test_jacobians_vs_finite_differences(self, rng):
        assert wnoa_fd_error(rng, 0.0) <= 1e-6

    def test_jacobians_vs_finite_differences_off_so3(self, rng):
        # the pose blocks of node a take exp(e) as T_b^-1 T_a exp(dt varpi_a),
        # which holds only to the drift of the rotations off SO(3): the error
        # grows to about six times the drift, and the bound allows 100 times
        assert wnoa_fd_error(rng, 1e-9) <= 1e-7


def wnoa_fd_error(rng, off):
    """Worst Jacobian error over N_FD samples, the poses ``off`` SO(3)."""

    def draw():
        s0 = moderate_state(rng)
        s1 = moderate_state(rng, base=s0[0])
        return (off_so3(rng, s0[0], off), s0[1], off_so3(rng, s1[0], off), s1[1],
                rng.uniform(0.05, 0.5))

    p0, v0, p1, v1, dt = stack_samples(draw() for _ in range(N_FD))
    _, J_a, J_b = factors.wnoa(p0, v0, p1, v1, dt)
    J0 = fd_jacobian(lambda d: factors.wnoa(*perturb(p0, v0, d), p1, v1, dt)[0], N_FD)
    J1 = fd_jacobian(lambda d: factors.wnoa(p0, v0, *perturb(p1, v1, d), dt)[0], N_FD)
    return max(np.abs(J_a - J0).max(), np.abs(J_b - J1).max())


def relative_pose_fd_error(rng, noise, off=0.0):
    """Worst Jacobian error over N_FD samples of a noisy relative pose, the
    poses ``off`` SO(3)."""

    def draw():
        s0 = moderate_state(rng)
        s1 = moderate_state(rng, base=s0[0])
        xi = lie.se3_inv(s0[0]) @ s1[0] @ lie.se3_exp(rng.normal(size=6) * noise)
        return (off_so3(rng, s0[0], off), s0[1], off_so3(rng, s1[0], off), s1[1], xi)

    p0, v0, p1, v1, xi = stack_samples(draw() for _ in range(N_FD))
    _, J_a, J_b = factors.relative_pose(p0, p1, xi)
    J0 = fd_jacobian(
        lambda d: factors.relative_pose(perturb(p0, v0, d)[0], p1, xi)[0], N_FD
    )[..., :6]
    J1 = fd_jacobian(
        lambda d: factors.relative_pose(p0, perturb(p1, v1, d)[0], xi)[0], N_FD
    )[..., :6]
    return max(np.abs(J_a - J0).max(), np.abs(J_b - J1).max())


class TestLoopClosureFactor:
    def test_zero_on_consistent_measurement(self, rng):
        p1, _ = moderate_state(rng)
        p2, _ = moderate_state(rng)
        e, _, J_b = factors.relative_pose(*one(p1, p2, lie.se3_inv(p1) @ p2))
        assert np.abs(e).max() < 1e-12
        assert np.abs(J_b[0] - np.eye(6)).max() < 1e-9

    def test_identity_states_measure_is_error(self, rng):
        xi = rng.normal(size=6) * 0.3
        e, _, _ = factors.relative_pose(*one(np.eye(4), np.eye(4), lie.se3_exp(xi)))
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
        M = -lie.left_jacobian_inv(-loop.e[0])
        assert np.abs(np.linalg.inv(loop.W[0]) - M @ LC_COV @ M.T).max() < 1e-12

    def test_right_jacobian_inverse_from_pose_block(self, rng):
        # J_l^-1(e) Ad(exp e) = J_r^-1(e) = -J_a Ad(Xi), the noise fold's
        # form, also for relative rotations within 1e-3 rad of pi
        def draw(angle):
            p0, p1 = random_pose(rng), random_pose(rng)
            axis = rng.normal(size=3)
            rel = lie.se3_exp(np.r_[angle * axis / np.linalg.norm(axis), rng.normal(size=3)])
            return p0, p1, lie.se3_inv(p0) @ p1 @ rel

        angles = np.r_[rng.uniform(0.0, np.pi, N_FD), np.pi - rng.uniform(0.0, 1e-3, N_FD)]
        p0, p1, xi = stack_samples(draw(a) for a in angles)
        e, J_a, _ = factors.relative_pose(p0, p1, xi)
        assert np.abs(np.linalg.norm(e[N_FD:, :3], axis=1) - angles[N_FD:]).max() < 1e-9
        lhs = lie.left_jacobian_inv(e) @ lie.adjoint(lie.se3_exp(e))
        assert np.abs(lhs + J_a @ lie.adjoint(xi)).max() <= 1e-12

    def test_requires_ordered_indices(self, psd, rng):
        # the graph checks a closure, not the measurement's constructor
        meas = factors.LoopClosureMeasurement(3, 3, np.eye(4), LC_COV)
        states = [moderate_state(rng) for _ in range(4)]
        with pytest.raises(ValueError, match="loop closure 0 references invalid nodes"):
            graph_of(states, psd, [meas])


class TestRelativePoseFactor:
    def test_zero_on_prior_trajectory(self, rng):
        p0, _ = moderate_state(rng)
        p1, _ = moderate_state(rng, base=p0)
        e, _, _ = factors.relative_pose(*one(p0, p1, lie.se3_inv(p0) @ p1))
        assert np.abs(e).max() < 1e-12

    def test_identity_everything(self):
        e, _, _ = factors.relative_pose(*one(np.eye(4), np.eye(4), np.eye(4)))
        assert np.array_equal(e, np.zeros((1, 6)))

    def test_jacobians_vs_finite_differences(self, rng):
        assert relative_pose_fd_error(rng, 0.05) <= 1e-6

    def test_jacobians_vs_finite_differences_off_so3(self, rng):
        assert relative_pose_fd_error(rng, 0.05, off=1e-9) <= 1e-7

    def test_exact_at_survey_coordinates(self, rng):
        # at UTM magnitudes the error and both blocks are, bit for bit, those
        # of the same poses moved back to the origin: the positions are
        # subtracted first, which is exact for nearby poses, and so is the
        # move back, within a factor of two of the offset
        offset = np.array([1e6, 1e7, 0.0])
        far = np.stack([random_pose(rng, trans_scale=10.0) for _ in range(200)])
        far[:, :3, 3] += offset
        near = far.copy()
        near[:, :3, 3] -= offset
        xi = np.stack([random_pose(rng) for _ in range(100)])
        at_far = factors.relative_pose(far[:100], far[100:], xi)
        at_near = factors.relative_pose(near[:100], near[100:], xi)
        for a, b in zip(at_far, at_near):
            assert np.array_equal(a, b)


class TestObservableFactor:
    def test_zero_at_prior_pose(self, rng):
        pose = random_pose(rng)
        e, _, _ = factors.observable(*one(pose, pose))
        assert np.abs(e).max() == 0.0

    def test_pure_yaw_offset_gives_zero(self, rng):
        base = random_pose(rng)
        yaw = lie.se3_exp(np.array([0.0, 0.0, 0.4, 0.0, 0.0, 0.0]))
        e, _, _ = factors.observable(*one(base @ yaw, base))
        assert np.abs(e).max() < 1e-15

    def test_depth_row_measures_world_down_offset(self, rng):
        base = random_pose(rng)
        prior_pose = base.copy()
        prior_pose[2, 3] += 0.7
        e, _, _ = factors.observable(*one(base, prior_pose))
        assert abs(e[0, 2] - 0.7) < 1e-12
        assert np.abs(e[0, :2]).max() < 1e-15

    def test_depth_row_is_position_difference(self, rng):
        # exact also for poses off SO(3) by 1e-9, as sim.degrade leaves them
        base = np.stack([off_so3(rng, random_pose(rng), 1e-9) for _ in range(N_FD)])
        pose = np.stack([off_so3(rng, b @ lie.se3_exp(rng.normal(size=6)), 1e-9) for b in base])
        e, _, _ = factors.observable(pose, base)
        assert np.array_equal(e[:, 2], base[:, 2, 3] - pose[:, 2, 3])

    def test_jacobian_vs_finite_differences_small_offsets(self, rng):
        def draw():
            base = random_pose(rng)
            d = rng.normal(size=6)
            d *= rng.uniform(0.0, 1e-3) / np.linalg.norm(d)
            return base @ lie.se3_exp(-d), rng.normal(size=6), base

        pose, varpi, base = stack_samples(draw() for _ in range(N_FD))
        _, J, _ = factors.observable(pose, base)
        J_fd = fd_jacobian(
            lambda d: factors.observable(perturb(pose, varpi, d)[0], base)[0], N_FD
        )[..., :6]
        assert np.abs(J - J_fd).max() <= 1e-4


class TestWeightProperties:
    def test_weights_spd(self, psd, rng):
        for _ in range(20):
            s0 = moderate_state(rng)
            s1 = moderate_state(rng, base=s0[0])
            meas = factors.LoopClosureMeasurement(
                0, 1, lie.se3_inv(s0[0]) @ s1[0], LC_COV
            )
            g = graph_of([s0, s1], psd, [meas])
            g.prior_poses[0] = random_pose(rng)
            g.prior_varpi = rng.normal(size=6)
            g.prior_cov = np.eye(12) * 0.1
            terms = solver._linearize(g)
            for name in ("prior", "wnoa", "loop"):
                W = terms[name].W[0]
                w = np.linalg.eigvalsh(W)
                assert w.min() > 0
                assert np.abs(W - W.T).max() < 1e-6 * w.max()
