import numpy as np
import pytest

from lcsmooth import lie


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
