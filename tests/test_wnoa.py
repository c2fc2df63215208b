import numpy as np
import pytest
from scipy.linalg import expm

from lcsmooth import lie, wnoa

from conftest import random_twist
from oracles import error_kinematics, q_expansion, transition_matrix


def van_loan_q(varpi, psd, dt):
    """Exact discretized process noise via the matrix-exponential construction."""
    A, L = error_kinematics(varpi)
    U = L @ psd.matrix() @ L.T
    M = np.zeros((24, 24))
    M[:12, :12] = -A
    M[:12, 12:] = U
    M[12:, 12:] = A.T
    E = expm(M * dt)
    return E[12:, 12:].T @ E[:12, 12:]


@pytest.fixture
def psd():
    return wnoa.WnoaPsd(q_omega=1e-2, q_nu=1e-4)


class TestTypes:
    def test_psd_positive(self):
        with pytest.raises(ValueError):
            wnoa.WnoaPsd(0.0, 1.0)
        with pytest.raises(ValueError):
            wnoa.WnoaPsd(1.0, -1e-9)


class TestErrorKinematics:
    def test_zero_velocity(self):
        A, L = error_kinematics(np.zeros(6))
        expected = np.zeros((12, 12))
        expected[:6, 6:] = -np.eye(6)
        assert np.array_equal(A, expected)
        assert np.array_equal(L[6:], np.eye(6))
        assert np.array_equal(L[:6], np.zeros((6, 6)))

    def test_top_left_is_negative_small_adjoint(self, rng):
        v = rng.normal(size=6)
        A, _ = error_kinematics(v)
        assert np.array_equal(A[:6, :6], -lie.small_adjoint(v))

    def test_cube_block_structure(self, rng):
        v = rng.normal(size=6)
        A, _ = error_kinematics(v)
        A3 = np.linalg.matrix_power(A, 3)
        adj = lie.small_adjoint(v)
        assert np.abs(A3[:6, :6] - (-np.linalg.matrix_power(adj, 3))).max() < 1e-12


class TestTransitionMatrix:
    def test_zero_velocity(self):
        dt = 0.7
        P = transition_matrix(np.zeros(6), dt)
        expected = np.eye(12)
        expected[:6, 6:] = -dt * np.eye(6)
        assert np.allclose(P, expected)

    def test_matches_series_exponential(self, rng):
        for _ in range(30):
            v = random_twist(rng, max_angle=1.0)
            v *= min(1.0, 1.0 / np.linalg.norm(v))
            dt = rng.uniform(0.01, 1.0)
            A, _ = error_kinematics(v)
            series = np.eye(12)
            term = np.eye(12)
            for k in range(1, 30):
                term = term @ (dt * A) / k
                series = series + term
            assert np.abs(transition_matrix(v, dt) - series).max() <= 1e-9

    def test_semigroup(self, rng):
        for _ in range(20):
            v = rng.normal(size=6) * 0.3
            dt = rng.uniform(0.05, 0.5)
            P1 = transition_matrix(v, dt)
            P2 = transition_matrix(v, 2.0 * dt)
            assert np.abs(P2 - P1 @ P1).max() <= 1e-9

    def test_inverse_product(self, rng):
        v = rng.normal(size=6) * 0.5
        P = transition_matrix(v, 0.3)
        assert np.abs(P @ np.linalg.inv(P) - np.eye(12)).max() < 1e-9

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            transition_matrix(np.zeros(6), 0.0)


class TestDiscretizeQ:
    def test_zero_velocity_closed_form(self):
        dt = 0.37
        q = 2.0
        Q = q_expansion(np.zeros(6), wnoa.WnoaPsd(q, q), dt)
        eye = np.eye(6)
        expected = np.block(
            [
                [dt**3 / 3 * q * eye, -(dt**2) / 2 * q * eye],
                [-(dt**2) / 2 * q * eye, dt * q * eye],
            ]
        )
        assert np.abs(Q - expected).max() < 1e-15

    def test_small_dt_matches_van_loan(self, psd, rng):
        for _ in range(20):
            v = random_twist(rng, max_angle=1.0)
            Q = q_expansion(v, psd, 1e-3)
            Qo = van_loan_q(v, psd, 1e-3)
            assert np.linalg.norm(Q - Qo) / np.linalg.norm(Qo) <= 1e-8

    def test_envelope_matches_van_loan(self, psd, rng):
        # dt <= 0.1 s, |varpi| <= 1
        worst = 0.0
        for _ in range(50):
            v = rng.normal(size=6)
            v *= rng.uniform(0.2, 1.0) / np.linalg.norm(v)
            dt = rng.uniform(0.01, 0.1)
            Q = q_expansion(v, psd, dt)
            Qo = van_loan_q(v, psd, dt)
            worst = max(worst, np.linalg.norm(Q - Qo) / np.linalg.norm(Qo))
        assert worst <= 1e-6

    def test_linear_in_psd(self, rng):
        v = rng.normal(size=6) * 0.4
        Q1 = q_expansion(v, wnoa.WnoaPsd(1e-2, 1e-4), 0.1)
        Q2 = q_expansion(v, wnoa.WnoaPsd(2e-2, 2e-4), 0.1)
        assert np.array_equal(Q2, 2.0 * Q1)

    def test_symmetric_by_construction(self, psd, rng):
        for _ in range(20):
            Q = q_expansion(rng.normal(size=6), psd, rng.uniform(0.01, 0.5))
            assert np.abs(Q - Q.T).max() <= 1e-14

    def test_batched_matches_scalar(self, psd, rng):
        vs = rng.normal(size=(10, 6)) * 0.5
        dts = rng.uniform(0.05, 0.2, size=10)
        Qs = q_expansion(vs, psd, dts)
        for i in (0, 4, 9):
            assert np.array_equal(Qs[i], q_expansion(vs[i], psd, dts[i]))


def weight(varpi_bar, psd, dt):
    """U^T U of the process-noise whitener U: the weight Q^-1."""
    U = wnoa.process_weight(varpi_bar, psd, dt)
    return np.swapaxes(U, -1, -2) @ U


class TestProcessWeight:
    def test_is_inverse_in_benign_regime(self, psd, rng):
        v = rng.normal(size=6) * 0.5
        W = weight(v, psd, 0.1)
        Q = q_expansion(v, psd, 0.1)
        assert np.abs(W @ Q - np.eye(12)).max() < 1e-6

    @pytest.mark.parametrize("dt", [0.05, 0.1, 1.0])
    def test_closed_form_at_zero_velocity(self, psd, dt):
        # the series is exact at varpi = 0, where Q^-1 has the closed form
        # [[12/dt^3, 6/dt^2], [6/dt^2, 4/dt]] (x) Q_c^-1
        W = weight(np.zeros(6), psd, dt)
        expected = np.kron(
            [[12.0 / dt**3, 6.0 / dt**2], [6.0 / dt**2, 4.0 / dt]],
            np.linalg.inv(psd.matrix()),
        )
        assert np.all(np.abs(W - expected) <= 1e-14 * np.abs(expected))

    def test_inverts_q_expansion(self, psd, rng):
        for _ in range(50):
            v = rng.normal(size=6) * 0.5
            dt = rng.uniform(0.01, 0.2)
            W = weight(v, psd, dt)
            assert np.abs(W @ q_expansion(v, psd, dt) - np.eye(12)).max() <= 1e-12

    def test_whitens_q_expansion(self, psd, rng):
        # U Q U^T = I: U is block upper triangular, with the diagonal
        # Q_vv^-1/2 in its velocity rows
        for _ in range(50):
            v = rng.normal(size=6) * 0.5
            dt = rng.uniform(0.01, 0.2)
            U = wnoa.process_weight(v, psd, dt)
            assert np.abs(U @ q_expansion(v, psd, dt) @ U.T - np.eye(12)).max() <= 1e-12
            assert np.array_equal(U[6:, :6], np.zeros((6, 6)))
            assert np.array_equal(U[6:, 6:], np.diag(np.diag(U[6:, 6:])))

    def test_batched_matches_per_edge(self, psd, rng):
        vs = rng.normal(size=(20, 6)) * 0.5
        dts = rng.uniform(0.05, 0.2, size=20)
        # one edge outside the regime takes the spectrum floor; the others
        # must keep their Cholesky whiteners
        vs[7], dts[7] = [0, 0, 3.0, 5.0, 0, 0], 1.0
        Us = wnoa.process_weight(vs, psd, dts)
        for i in range(20):
            assert np.array_equal(Us[i], wnoa.process_weight(vs[i], psd, dts[i]))

    def test_finite_outside_regime(self, psd):
        U = wnoa.process_weight(np.array([0, 0, 3.0, 5.0, 0, 0]), psd, 1.0)
        assert np.all(np.isfinite(U))
        W = U.T @ U
        assert np.linalg.eigvalsh(W).min() > 0.0

    def test_whitens_floored_q_outside_regime(self, psd):
        # outside the regime the Schur complement S = Q_pp - G Q_pv^T is
        # indefinite; U takes the inverse square root of S with its spectrum
        # floored at 1e-12 of the largest eigenvalue, in place of R
        v, dt = np.array([0, 0, 3.0, 5.0, 0, 0]), 1.0
        Q_pp, Q_pv, q_vv = wnoa._q_blocks(v, psd, dt)
        G = Q_pv / q_vv
        w, V = np.linalg.eigh(Q_pp - G @ Q_pv.T)
        assert w[0] < 0.0
        R = V.T / np.sqrt(np.maximum(w, 1e-12 * abs(w[-1])))[:, None]
        expected = np.zeros((12, 12))
        expected[:6, :6] = R
        expected[:6, 6:] = -R @ G
        expected[6:, 6:] = np.diag(q_vv**-0.5)
        U = wnoa.process_weight(v, psd, dt)
        assert np.abs(U - expected).max() <= 1e-12 * np.abs(expected).max()
