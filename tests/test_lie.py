import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsmooth import lie

from conftest import random_pose, random_twist, series_left_jacobian, series_matrix_exp
from oracles import is_rotation, right_jacobian, se3_vee, se3_wedge


class TestExp:
    def test_zero_twist_is_identity(self):
        assert np.array_equal(lie.se3_exp(np.zeros(6)), np.eye(4))

    def test_pure_translation(self):
        T = lie.se3_exp(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
        assert np.allclose(T[:3, :3], np.eye(3))
        assert np.allclose(T[:3, 3], [1.0, 2.0, 3.0])

    def test_matches_truncated_matrix_power_series(self):
        xi = np.array([0.0, 0.0, np.pi / 2, 1.0, 0.0, 0.0])
        expected = series_matrix_exp(se3_wedge(xi), terms=20)
        assert np.abs(lie.se3_exp(xi) - expected).max() < 1e-12

    def test_random_twists_match_series(self, rng):
        for _ in range(50):
            xi = random_twist(rng, max_angle=2.0, trans_scale=2.0)
            expected = series_matrix_exp(se3_wedge(xi))
            assert np.abs(lie.se3_exp(xi) - expected).max() < 1e-12


class TestLog:
    def test_identity(self):
        assert np.array_equal(lie.se3_log(np.eye(4)), np.zeros(6))

    def test_roundtrip_specific(self):
        xi = np.array([0.1, -0.2, 0.3, 1.0, 1.0, 1.0])
        assert np.abs(lie.se3_log(lie.se3_exp(xi)) - xi).max() < 1e-10

    def test_pure_translation(self):
        T = np.eye(4)
        T[:3, 3] = [4.0, -5.0, 6.0]
        assert np.allclose(lie.se3_log(T), [0, 0, 0, 4.0, -5.0, 6.0])

    def test_roundtrip_1000_random(self, rng):
        xis = np.stack([random_twist(rng) for _ in range(1000)])
        back = lie.se3_log(lie.se3_exp(xis))
        assert np.abs(back - xis).max() <= 1e-9

    def test_roundtrip_at_pi(self, rng):
        # at exactly pi either sign of the axis is a principal log
        axes = np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [1.0, 2.0, 3.0]], rng.normal(size=(5, 3))])
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for a in axes:
            C = 2.0 * np.outer(a, a) - np.eye(3)
            # off SO(3) by about 1e-11, as products of degraded poses are
            E = rng.normal(size=(3, 3))
            perturbed = C + E * (1e-11 / np.abs(E).max())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                phi = lie.so3_log(C)
                phi_perturbed = lie.so3_log(perturbed)
            assert np.abs(lie.so3_exp(phi) - C).max() <= 1e-12
            assert abs(np.linalg.norm(phi) - np.pi) <= 1e-12
            # exp returns a rotation, which cannot reproduce a matrix off
            # SO(3): allow twice the perturbation
            R = lie.so3_exp(phi_perturbed)
            assert np.abs(R - perturbed).max() <= 2e-11
            assert np.abs(R - C).max() <= 2e-11
            assert abs(np.linalg.norm(phi_perturbed) - np.pi) <= 1e-10

    def test_near_pi_still_accurate(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = (np.pi - 1e-7) * axis
        assert np.abs(lie.so3_log(lie.so3_exp(phi)) - phi).max() < 1e-6


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(lie.adjoint(np.eye(4)), np.eye(6))

    def test_defining_identity(self, rng):
        for _ in range(50):
            T = random_pose(rng)
            xi = rng.normal(size=6)
            lhs = lie.adjoint(T) @ xi
            rhs = se3_vee(T @ se3_wedge(xi) @ lie.se3_inv(T))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_pure_rotation_lower_left_zero(self, rng):
        T = lie.se3_exp(np.concatenate([rng.normal(size=3) * 0.5, np.zeros(3)]))
        assert np.array_equal(lie.adjoint(T)[3:, :3], np.zeros((3, 3)))

    def test_composition_compatibility(self, rng):
        for _ in range(30):
            T1, T2 = random_pose(rng), random_pose(rng)
            lhs = lie.adjoint(T1 @ T2)
            rhs = lie.adjoint(T1) @ lie.adjoint(T2)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestSmallAdjoint:
    def test_zero(self):
        assert np.array_equal(lie.small_adjoint(np.zeros(6)), np.zeros((6, 6)))

    def test_lie_bracket_identity(self, rng):
        for _ in range(50):
            xi1, xi2 = rng.normal(size=6), rng.normal(size=6)
            lhs = se3_wedge(lie.small_adjoint(xi1) @ xi2)
            w1, w2 = se3_wedge(xi1), se3_wedge(xi2)
            assert np.abs(lhs - (w1 @ w2 - w2 @ w1)).max() < 1e-12

    def test_exp_of_small_adjoint_is_adjoint_of_exp(self, rng):
        for _ in range(30):
            xi = random_twist(rng, max_angle=1.5)
            lhs = series_matrix_exp(lie.small_adjoint(xi), terms=40)
            assert np.abs(lhs - lie.adjoint(lie.se3_exp(xi))).max() < 1e-10


class TestJacobians:
    def test_identity_at_zero(self):
        assert np.allclose(lie.left_jacobian(np.zeros(6)), np.eye(6))
        assert np.allclose(right_jacobian(np.zeros(6)), np.eye(6))

    def test_left_is_right_of_negated(self, rng):
        # J_l(xi) = Ad(exp(xi^)) J_r(xi), with J_r(xi) = J_l(-xi)
        for _ in range(50):
            xi = random_twist(rng, max_angle=2.5, trans_scale=2.0)
            assert np.abs(
                lie.left_jacobian(xi) - lie.adjoint(lie.se3_exp(xi)) @ lie.left_jacobian(-xi)
            ).max() < 1e-12

    def test_matches_series(self, rng):
        for _ in range(50):
            xi = random_twist(rng, max_angle=2.0, trans_scale=2.0)
            assert np.abs(
                lie.left_jacobian(xi) - series_left_jacobian(xi)
            ).max() < 1e-10

    def test_inverse_consistency(self, rng):
        for _ in range(50):
            xi = random_twist(rng, max_angle=2.5)
            prod = lie.left_jacobian_inv(xi) @ lie.left_jacobian(xi)
            assert np.abs(prod - np.eye(6)).max() < 1e-10

    def test_adjoint_jacobian_identity(self, rng):
        # Adj(exp(xi^)) = J_left(xi) J_right(xi)^-1, J_right(xi)^-1 = J_left(-xi)^-1
        for _ in range(100):
            xi = random_twist(rng)
            lhs = lie.adjoint(lie.se3_exp(xi))
            rhs = lie.left_jacobian(xi) @ lie.left_jacobian_inv(-xi)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_bch_first_order(self, rng):
        # log(exp(xi^) exp(delta^))^v ~ xi + J_left(-xi)^-1 delta for small delta
        for _ in range(30):
            xi = random_twist(rng, max_angle=2.0)
            delta = rng.normal(size=6)
            delta *= 1e-6 / np.linalg.norm(delta)
            lhs = lie.se3_log(lie.se3_exp(xi) @ lie.se3_exp(delta))
            rhs = xi + lie.left_jacobian_inv(-xi) @ delta
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_small_angle_continuity(self):
        # no discontinuity or precision cliff across the series thresholds
        for scale in (1e-9, 0.999e-6, 1.001e-6, 0.049, 0.051, 0.09, 0.24,
                      0.26, 0.34, 0.36):
            xi = np.array([scale, scale * 0.3, -scale * 0.5, 0.5, -0.2, 0.8])
            xi[:3] *= scale / np.linalg.norm(xi[:3])
            a = lie.left_jacobian(xi)
            b = series_left_jacobian(xi, terms=40)
            assert np.abs(a - b).max() < 1e-12, scale


class TestBetween:
    def test_is_inverse_times_pose(self, rng):
        for _ in range(100):
            T_a, T_b = random_pose(rng, trans_scale=10.0), random_pose(rng, trans_scale=10.0)
            assert np.abs(lie.between(T_a, T_b) - lie.se3_inv(T_a) @ T_b).max() <= 1e-12


class TestInterpolate:
    def test_endpoints(self, rng):
        Ti, Tk = random_pose(rng), random_pose(rng)
        assert np.allclose(lie.interpolate(Ti, Tk, 0.0), Ti)
        assert np.allclose(lie.interpolate(Ti, Tk, 1.0), Tk, atol=1e-12)

    def test_translation_midpoint(self):
        Ti = lie.make_pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        Tk = lie.make_pose(np.eye(3), np.array([3.0, 6.0, 9.0]))
        mid = lie.interpolate(Ti, Tk, 0.5)
        assert np.allclose(mid[:3, 3], [2.0, 4.0, 6.0])
        assert np.allclose(mid[:3, :3], np.eye(3))


class TestBatching:
    def test_batched_matches_scalar(self, rng):
        xis = np.stack([random_twist(rng) for _ in range(20)])
        Ts = lie.se3_exp(xis)
        for i in (0, 7, 19):
            assert np.array_equal(Ts[i], lie.se3_exp(xis[i]))
            assert np.array_equal(
                lie.left_jacobian_inv(xis)[i], lie.left_jacobian_inv(xis[i])
            )
            assert np.array_equal(lie.adjoint(Ts)[i], lie.adjoint(Ts[i]))
            assert np.array_equal(lie.between(Ts, Ts[::-1])[i], lie.between(Ts[i], Ts[19 - i]))

    def test_finite_outputs(self, rng):
        xis = np.stack([random_twist(rng, trans_scale=10.0) for _ in range(200)])
        for arr in (
            lie.se3_exp(xis),
            lie.left_jacobian(xis),
            lie.left_jacobian_inv(-xis),
            lie.adjoint(lie.se3_exp(xis)),
        ):
            assert np.all(np.isfinite(arr))

    def test_rotation_validity(self, rng):
        Ts = lie.se3_exp(np.stack([random_twist(rng) for _ in range(100)]))
        assert is_rotation(Ts[:, :3, :3], tol=1e-9)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
ANGLE_BANDS = {
    "near_zero": (1e-9, 1e-3),
    "middle": (1e-3, np.pi - 1e-3),
    "near_pi": (np.pi - 1e-3, np.pi),
}


class TestProperties:
    @pytest.mark.parametrize("band", ANGLE_BANDS, ids=list(ANGLE_BANDS))
    @settings(deadline=None, database=None)
    @given(data=st.data(), axis=AXES)
    def test_so3_roundtrip(self, band, data, axis):
        angle = data.draw(st.floats(*ANGLE_BANDS[band]))
        phi = angle * unit(axis)
        C = lie.so3_exp(phi)
        back = lie.so3_log(C)
        assert np.abs(lie.so3_exp(back) - C).max() <= 1e-12
        assert abs(np.linalg.norm(back) - angle) <= 1e-12 * angle
        if angle < np.pi - 1e-9:  # short of pi the principal log is unique
            assert np.abs(back - phi).max() <= 1e-12 * angle

    @settings(deadline=None, database=None)
    @given(
        axis=AXES,
        angle=st.just(np.pi) | st.floats(0.0, np.pi),
        rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )
    def test_jacobians_at_principal_angles(self, axis, angle, rho):
        # the Jacobians are evaluated at principal logs: angles in [0, pi]
        xi = np.concatenate([angle * unit(axis), rho])
        J = lie.left_jacobian(xi)
        # also within 1e-8 rad of pi, where 1 + cos t cancels
        assert np.abs(lie.left_jacobian_inv(xi) @ J - np.eye(6)).max() <= 1e-12
        # exp((xi + d)^) = exp((J d)^) exp(xi^) to first order in d
        h = 1e-6
        back = lie.se3_inv(lie.se3_exp(xi))
        fd = np.stack(
            [
                lie.se3_log(lie.se3_exp(xi + h * e) @ back)
                - lie.se3_log(lie.se3_exp(xi - h * e) @ back)
                for e in np.eye(6)
            ],
            axis=1,
        ) / (2 * h)
        assert np.abs(fd - J).max() <= 1e-8

    @settings(deadline=None, database=None)
    @given(axis=AXES, angle=st.floats(0.0, np.pi))
    def test_quaternion_roundtrip(self, axis, angle):
        C = lie.so3_exp(angle * unit(axis))
        q = lie.quat_from_rotation(C)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
        assert q[0] >= 0.0
        assert np.abs(lie.rotation_from_quat(q) - C).max() <= 1e-12

    @settings(deadline=None, database=None)
    @given(st.lists(st.tuples(AXES, st.floats(0.0, np.pi)), min_size=1, max_size=12))
    def test_batched_equals_per_matrix(self, rotations):
        a = unit(rotations[0][0])
        at_pi = 2.0 * np.outer(a, a) - np.eye(3)
        Cs = np.stack([lie.so3_exp(angle * unit(axis)) for axis, angle in rotations] + [at_pi])
        qs = lie.quat_from_rotation(Cs[:, None])[:, 0]  # two batch dimensions
        phis = lie.so3_log(Cs)
        Rs = lie.rotation_from_quat(qs)
        for C, q, phi, R in zip(Cs, qs, phis, Rs):
            assert np.array_equal(lie.quat_from_rotation(C), q)
            assert np.array_equal(lie.so3_log(C), phi)
            assert np.array_equal(lie.rotation_from_quat(q), R)
