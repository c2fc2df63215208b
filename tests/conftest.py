import numpy as np
import pytest

from lcsmooth import cli, lie, sim
from lcsmooth.factors import LoopClosureMeasurement

# the tunables the CLI runs with
CFG = cli.PipelineConfig()


def random_twist(rng, max_angle=np.pi - 0.1, trans_scale=1.0):
    phi = rng.normal(size=3)
    phi *= rng.uniform(0.0, max_angle) / np.linalg.norm(phi)
    return np.concatenate([phi, rng.normal(size=3) * trans_scale])


def random_pose(rng, max_angle=np.pi - 0.1, trans_scale=1.0):
    return lie.se3_exp(random_twist(rng, max_angle, trans_scale))


def series_matrix_exp(X, terms=30):
    out = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def series_left_jacobian(xi, terms=30):
    A = lie.small_adjoint(xi)
    out = np.eye(6)
    term = np.eye(6)
    for k in range(1, terms):
        term = term @ A / (k + 1)
        out = out + term
    return out


# 180 degrees in yaw
YAW_PI = np.diag([-1.0, -1.0, 1.0, 1.0])


def flipped_closure_line(orthonormal):
    """A 50-node line (1 m/s, 10 Hz) and two loop closures on its poses.

    Closure 0 (nodes 5 and 45) agrees with the poses.  Closure 1 (nodes 10
    and 40) is their relative pose turned 180 degrees in yaw: a flipped
    registration that the robust weight must reject.  Unless ``orthonormal``,
    every pose is composed with the last pose of a degraded two-pass survey,
    which the products in ``sim.degrade`` leave off SO(3) by about 2e-11, so
    the flipped closure's error rotation is off SO(3) by as much.
    """
    times = np.arange(50) * 0.1
    poses = lie.make_pose(np.eye(3), np.outer(times, [1.0, 0.0, 0.0]))
    if not orthonormal:
        cfg = sim.default_config(seed=4)
        cfg.passes = 2
        cfg.pass_length = 20.0
        poses = sim.degrade(sim.generate_truth(cfg), cfg).poses[-1] @ poses
    cov = np.diag([np.deg2rad(0.2) ** 2] * 3 + [0.02**2] * 3)
    closures = [
        LoopClosureMeasurement(5, 45, lie.se3_inv(poses[5]) @ poses[45], cov),
        LoopClosureMeasurement(10, 40, lie.se3_inv(poses[10]) @ poses[40] @ YAW_PI, cov),
    ]
    return times, poses, closures


def profile_rows(profiles):
    """The ``(stamps, points)`` rows of per-profile records such as
    ``sim.synth_scan``'s, in the form that the profile file holds."""
    if not profiles:
        return np.zeros(0), np.zeros((0, 3))
    stamps = np.concatenate([np.full(len(p.points), p.timestamp) for p in profiles])
    return stamps, np.vstack([p.points for p in profiles])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


FD_STEP = 1e-6


def moderate_state(rng, base=None):
    """A (pose, varpi) sample; near ``base`` when given."""
    pose = random_pose(rng) if base is None else base @ lie.se3_exp(
        rng.normal(size=6) * 0.2
    )
    return pose, rng.normal(size=6) * 0.5


def stack_samples(samples):
    """Stack per-sample tuples of arrays into one tuple of batched arrays."""
    return tuple(np.stack(column) for column in zip(*samples))


def perturb(pose, varpi, dx):
    """The left-invariant perturbation scheme of all factors, on stacked states."""
    return pose @ lie.se3_exp(-dx[..., :6]), varpi + dx[..., 6:]


def fd_jacobian(err_fn, m, dim=12, step=FD_STEP):
    """Central-difference Jacobians (m, d, dim) of a batched error function.

    ``err_fn`` maps stacked perturbations (m, dim) to stacked errors (m, d);
    each perturbation column costs two calls, each covering all m samples.
    """
    columns = []
    for i in range(dim):
        d = np.zeros((m, dim))
        d[:, i] = step
        columns.append((err_fn(d) - err_fn(-d)) / (2.0 * step))
    return np.stack(columns, axis=-1)
