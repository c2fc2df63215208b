import re
import warnings

import numpy as np
import pytest

from lcsmooth import dataio, frontend, lie
from lcsmooth.factors import LoopClosureMeasurement, NonFiniteInputError
from lcsmooth.trajectory import Trajectory

from conftest import random_pose


def quat_from_rotation_per_row(C):
    """Shepperd's method one matrix at a time: the reference for the batched form."""
    q = np.empty((len(C), 4))
    tr = np.trace(C, axis1=-2, axis2=-1)
    choice = np.argmax(np.stack([tr, C[:, 0, 0], C[:, 1, 1], C[:, 2, 2]], axis=1), axis=1)
    for i, (M, c) in enumerate(zip(C, choice)):
        if c == 0:
            s = np.sqrt(1.0 + tr[i]) * 2.0
            q[i] = [0.25 * s, (M[2, 1] - M[1, 2]) / s, (M[0, 2] - M[2, 0]) / s,
                    (M[1, 0] - M[0, 1]) / s]
        elif c == 1:
            s = np.sqrt(1.0 + M[0, 0] - M[1, 1] - M[2, 2]) * 2.0
            q[i] = [(M[2, 1] - M[1, 2]) / s, 0.25 * s,
                    (M[0, 1] + M[1, 0]) / s, (M[0, 2] + M[2, 0]) / s]
        elif c == 2:
            s = np.sqrt(1.0 - M[0, 0] + M[1, 1] - M[2, 2]) * 2.0
            q[i] = [(M[0, 2] - M[2, 0]) / s, (M[0, 1] + M[1, 0]) / s,
                    0.25 * s, (M[1, 2] + M[2, 1]) / s]
        else:
            s = np.sqrt(1.0 - M[0, 0] - M[1, 1] + M[2, 2]) * 2.0
            q[i] = [(M[1, 0] - M[0, 1]) / s, (M[0, 2] + M[2, 0]) / s,
                    (M[1, 2] + M[2, 1]) / s, 0.25 * s]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q


class TestQuaternions:
    def test_matches_per_row_reference_bit_for_bit(self, rng):
        # the trajectory files must not change by a bit: random rotations,
        # rotations near and at pi, and all of them off SO(3) by ~1e-11
        axes = rng.normal(size=(3000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([rng.uniform(0.0, np.pi, 2000), np.pi - 10.0 ** -rng.uniform(1, 12, 900)])
        Cs = np.concatenate([
            lie.so3_exp(angles[:, None] * axes[:2900]),
            2.0 * axes[2900:, :, None] * axes[2900:, None, :] - np.eye(3),
        ])
        Cs = np.concatenate([Cs, Cs + rng.normal(size=Cs.shape) * 1e-11])
        assert np.array_equal(lie.quat_from_rotation(Cs), quat_from_rotation_per_row(Cs))

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            C = random_pose(rng)[:3, :3]
            q = lie.quat_from_rotation(C)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert np.abs(lie.rotation_from_quat(q) - C).max() < 1e-12

    def test_near_pi_rotations(self, rng):
        for axis in (np.eye(3)):
            C = lie.so3_exp((np.pi - 1e-5) * axis)
            q = lie.quat_from_rotation(C)
            assert np.abs(lie.rotation_from_quat(q) - C).max() < 1e-12

    def test_scalar_first_hamilton(self):
        # 90 degrees about z
        q = lie.quat_from_rotation(lie.so3_exp(np.array([0, 0, np.pi / 2])))
        assert np.allclose(q, [np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])


class TestTrajectoryCsv:
    def test_roundtrip_exact(self, rng, tmp_path):
        n = 25
        poses = np.stack([random_pose(rng) for _ in range(n)])
        traj = Trajectory(times=np.sort(rng.uniform(0, 100, n)), poses=poses)
        path = tmp_path / "traj.csv"
        dataio.write_trajectory(path, traj)
        back = dataio.read_trajectory(path)
        assert np.array_equal(back.times, traj.times)
        assert np.abs(back.positions - traj.positions).max() == 0.0
        assert np.abs(back.poses - traj.poses).max() < 1e-12

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,rx,ry,rz,qw,qx,qy,qz\n0.0,1.0,nope,3\n")
        with pytest.raises(ValueError, match="malformed|columns"):
            dataio.read_trajectory(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, rng, tmp_path, value):
        path = tmp_path / "traj.csv"
        poses = np.stack([random_pose(rng) for _ in range(6)])
        dataio.write_trajectory(path, Trajectory(np.arange(6) * 0.1, poses))
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[2] = value
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteInputError, match=f"{re.escape(str(path))}: data row 4") as info:
            dataio.read_trajectory(path)
        assert info.value.index == 4


def savetxt_bytes(path, header, data):
    """The reference writer: what every CSV of the package is byte for byte."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


# values whose text is easy to get wrong: signed zero, the smallest
# subnormal, the near-overflow range, integral floats, survey-epoch stamps
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 3.0, -42.0,
           1e16, 0.1, 1.0 / 3.0, 1.7e9, 1.7e9 + 0.05, 1700000000.1234567]


class TestWritersMatchSavetxt:
    def test_profiles(self, rng, tmp_path):
        values = np.array(AWKWARD)
        profiles = [frontend.LaserProfile(t, rng.choice(values, size=(k, 3)))
                    for t, k in ((-0.0, 1), (5e-324, 2), (3.0, 1), (1.7e9, 4),
                                 (1.7e9 + 0.05, 1), (1e308, 3))]
        profiles.append(frontend.LaserProfile(1700000000.1234567, rng.normal(size=(50, 3)) * 1e3))
        stamped = np.vstack([np.column_stack([np.full(len(p.points), p.timestamp), p.points])
                             for p in profiles])
        dataio.write_profiles(tmp_path / "p.csv", profiles)
        expect = savetxt_bytes(tmp_path / "ref.csv", "t,x,y,z", stamped)
        assert (tmp_path / "p.csv").read_bytes() == expect

    def test_no_profiles(self, tmp_path):
        dataio.write_profiles(tmp_path / "p.csv", [])
        expect = savetxt_bytes(tmp_path / "ref.csv", "t,x,y,z", np.zeros((0, 4)))
        assert (tmp_path / "p.csv").read_bytes() == expect == b"t,x,y,z\n"

    @pytest.mark.parametrize("shape", [(0, 5), (1, 5), (7, 8), (0,), (1,), (9,)])
    def test_rows(self, rng, tmp_path, shape):
        data = rng.choice(np.array(AWKWARD), size=shape)
        dataio.write_rows(tmp_path / "r.csv", "a,b", data)
        assert (tmp_path / "r.csv").read_bytes() == savetxt_bytes(tmp_path / "ref.csv", "a,b", data)

    def test_trajectory_and_closures(self, rng, tmp_path):
        times = 1.7e9 + np.arange(12) * 0.1
        poses = np.stack([random_pose(rng, trans_scale=1e4) for _ in range(12)])
        dataio.write_trajectory(tmp_path / "traj.csv", Trajectory(times, poses))
        q = lie.quat_from_rotation(poses[:, :3, :3])
        expect = savetxt_bytes(tmp_path / "ref.csv", "t,rx,ry,rz,qw,qx,qy,qz",
                               np.hstack([times[:, None], poses[:, :3, 3], q]))
        assert (tmp_path / "traj.csv").read_bytes() == expect

        meas = [LoopClosureMeasurement(2, 9, poses[3], np.diag([1e-300, 1e-8, 1.0, 3.0, 0.25, 1e300]))]
        dataio.write_loop_closures(tmp_path / "lc.csv", meas, times)
        row = np.concatenate([times[[2, 9]], poses[3, :3, :3].ravel(), poses[3, :3, 3],
                              [1e-300, 1e-8, 1.0, 3.0, 0.25, 1e300]])
        header = (tmp_path / "lc.csv").read_text().splitlines()[0]
        expect = savetxt_bytes(tmp_path / "ref.csv", header, row[None])
        assert (tmp_path / "lc.csv").read_bytes() == expect


class TestProfilesCsv:
    def test_roundtrip(self, rng, tmp_path):
        profiles = [
            frontend.LaserProfile(0.05 * k, rng.normal(size=(rng.integers(1, 6), 3)))
            for k in range(10)
        ]
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, profiles)
        back = dataio.read_profiles(path)
        assert len(back) == len(profiles)
        for a, b in zip(profiles, back):
            assert b.timestamp == a.timestamp
            assert np.array_equal(a.points, b.points)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dataio.read_profiles(path) == []

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "profiles.csv"
        for body in ("0.0,1.0,nope,3.0\n", "0.0,1.0,2.0,3.0\n0.0,1.0,2.0\n"):
            path.write_text("t,x,y,z\n" + body)
            expect = f"{re.escape(str(path))}: malformed profile CSV"
            with pytest.raises(ValueError, match=expect):
                dataio.read_profiles(path)


class TestLoopClosureCsv:
    def test_roundtrip(self, rng, tmp_path):
        times = np.arange(100) * 0.1
        meas = [
            LoopClosureMeasurement(
                3, 77, random_pose(rng),
                np.diag(rng.uniform(1e-6, 1e-2, 6)),
            ),
            LoopClosureMeasurement(
                10, 50, random_pose(rng), np.diag(np.full(6, 1e-4))
            ),
        ]
        path = tmp_path / "lc.csv"
        dataio.write_loop_closures(path, meas, times)
        back = dataio.read_loop_closures(path, times)
        for a, b in zip(meas, back):
            assert (a.idx_l1, a.idx_l2) == (b.idx_l1, b.idx_l2)
            assert np.abs(a.xi_meas - b.xi_meas).max() == 0.0
            assert np.array_equal(np.diag(a.cov), np.diag(b.cov))

    def test_empty_and_malformed(self, tmp_path):
        times = np.arange(10) * 1.0
        path = tmp_path / "lc.csv"
        dataio.write_loop_closures(path, [], times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dataio.read_loop_closures(path, times) == []
        path.write_text(path.read_text() + "0.0,5.0,nope\n")
        expect = f"{re.escape(str(path))}: malformed loop-closure CSV"
        with pytest.raises(ValueError, match=expect):
            dataio.read_loop_closures(path, times)

    def test_non_finite_rejected(self, rng, tmp_path):
        times = np.arange(10) * 1.0
        meas = [
            LoopClosureMeasurement(0, 5, random_pose(rng), np.eye(6) * 1e-4),
            LoopClosureMeasurement(2, 7, random_pose(rng), np.eye(6) * 1e-4),
        ]
        path = tmp_path / "lc.csv"
        dataio.write_loop_closures(path, meas, times)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteInputError, match=f"{re.escape(str(path))}: data row 2"):
            dataio.read_loop_closures(path, times)

    def test_unresolvable_time_raises(self, rng, tmp_path):
        times = np.arange(10) * 1.0
        meas = [
            LoopClosureMeasurement(0, 5, random_pose(rng), np.eye(6) * 1e-4),
            LoopClosureMeasurement(2, 7, random_pose(rng), np.eye(6) * 1e-4),
        ]
        path = tmp_path / "lc.csv"
        dataio.write_loop_closures(path, meas, times)
        with pytest.raises(dataio.UnresolvedClosureTimeError) as info:
            dataio.read_loop_closures(path, times + 0.7)
        assert isinstance(info.value, ValueError)
        assert "half a sample period" in str(info.value)
        assert np.array_equal(info.value.times, [0.0])
        # every unresolved time is carried, not only the first one met
        moved = times.copy()
        moved[[5, 7]] += 0.7
        with pytest.raises(dataio.UnresolvedClosureTimeError) as info:
            dataio.read_loop_closures(path, moved)
        assert np.array_equal(info.value.times, [5.0, 7.0])


class TestConfig:
    def test_parse_and_hash(self):
        text = """
        # comment
        wnoa.q_omega = 1e-2
        sim.seed = 7   # trailing comment
        """
        values = dataio.parse_config_text(text)
        assert values == {"wnoa.q_omega": "1e-2", "sim.seed": "7"}
        assert dataio.config_hash(values) == dataio.config_hash(dict(reversed(values.items())))

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            dataio.parse_config_text("a.b = 1\nnot a config line\n")

    def test_file_roundtrip(self, tmp_path):
        values = {"a.x": "1.5", "b.y": "true"}
        path = tmp_path / "c.cfg"
        dataio.write_config(path, values)
        assert dataio.read_config(path) == values
