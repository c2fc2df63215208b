import hashlib
import re
import warnings

import numpy as np
import pytest

from lcsmooth import dataio, lie
from lcsmooth.factors import LoopClosureMeasurement
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
        with pytest.raises(dataio.InputRowError, match=f"{re.escape(str(path))}: data row 4") as info:
            dataio.read_trajectory(path)
        assert info.value.row == 4


def savetxt_bytes(path, header, data):
    """The reference writer: what every CSV of the package is byte for byte."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


# values whose text is easy to get wrong: signed zero, the smallest
# subnormal, the near-overflow range, integral floats, survey-epoch stamps
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 3.0, -42.0,
           1e16, 0.1, 1.0 / 3.0, 1.7e9, 1.7e9 + 0.05, 1700000000.1234567]


def awkward_rows(rng):
    """Profile rows ``(stamps, points)`` whose values are AWKWARD: a 0.0
    profile beside a -0.0 one, then profiles of 1 to 50 points."""
    values = np.array(AWKWARD)
    spec = ((0.0, 2), (-0.0, 1), (5e-324, 2), (3.0, 1), (1.7e9, 4), (1.7e9 + 0.05, 1),
            (1e308, 3), (1700000000.1234567, 50))
    stamps = np.concatenate([np.full(k, t) for t, k in spec])
    points = np.vstack([rng.choice(values, size=(len(stamps) - 50, 3)),
                        rng.normal(size=(50, 3)) * 1e3])
    return stamps, points


def no_rows():
    return np.zeros(0), np.zeros((0, 3))


class TestWritersMatchSavetxt:
    def test_profiles(self, rng, tmp_path):
        stamps, points = awkward_rows(rng)
        dataio.write_profiles(tmp_path / "p.csv", stamps, points)
        expect = savetxt_bytes(tmp_path / "ref.csv", "t,x,y,z", np.column_stack([stamps, points]))
        assert (tmp_path / "p.csv").read_bytes() == expect
        assert b"\n0," in expect and b"\n-0," in expect

    def test_no_profiles(self, tmp_path):
        dataio.write_profiles(tmp_path / "p.csv", *no_rows())
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


def read_profiles(path):
    """``dataio.read_profiles`` given the sha256 of the CSV's current bytes."""
    return dataio.read_profiles(path, hashlib.sha256(path.read_bytes()).hexdigest())


class TestProfilesCsv:
    def test_roundtrip(self, rng, tmp_path):
        stamps = np.repeat(0.05 * np.arange(10), rng.integers(1, 6, size=10))
        points = rng.normal(size=(len(stamps), 3))
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, stamps, points)
        back_stamps, back_points = read_profiles(path)
        assert np.array_equal(back_stamps, stamps)
        assert np.array_equal(back_points, points)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *no_rows())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stamps, points = read_profiles(path)
        assert stamps.shape == (0,) and points.shape == (0, 3)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "profiles.csv"
        for body in ("0.0,1.0,nope,3.0\n", "0.0,1.0,2.0,3.0\n0.0,1.0,2.0\n"):
            path.write_text("t,x,y,z\n" + body)
            expect = f"{re.escape(str(path))}: malformed profile CSV"
            with pytest.raises(ValueError, match=expect):
                read_profiles(path)


def stored(path):
    """(sha256, rows) of the binary copy beside the CSV ``path``."""
    with np.load(f"{path}.npz") as copy:
        return str(copy["sha256"]), copy["rows"]


def assert_same_rows(a, b):
    """Equal ``(stamps, points)`` rows, to the bit."""
    for x, y in zip(a, b, strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestProfilesCopy:
    """The binary copy beside ``profiles.csv``: a cache keyed by the CSV's
    sha256, which changes no result and no error."""

    def test_rows_equal_loadtxt_bit_for_bit(self, rng, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *awkward_rows(rng))
        digest, rows = stored(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        expect = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows.dtype == expect.dtype and rows.shape == expect.shape
        assert rows.tobytes() == expect.tobytes()  # -0.0 and 5e-324 included

    def test_hit_equals_miss(self, rng, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *awkward_rows(rng))
        hit = read_profiles(path)
        copy = path.with_name("profiles.csv.npz")
        copy.unlink()
        miss = read_profiles(path)
        assert_same_rows(hit, miss)
        # the miss wrote the copy again, and the next read is a hit on it
        assert stored(path)[0] == dataio.sha256_file(path)
        assert_same_rows(read_profiles(path), miss)

    def test_hit_reads_the_copy(self, rng, tmp_path):
        # a copy under the CSV's digest is what the read returns: the CSV is
        # not parsed again
        path = tmp_path / "profiles.csv"
        stamps, points = awkward_rows(rng)
        dataio.write_profiles(path, stamps[-50:], points[-50:])
        digest, rows = stored(path)
        np.savez(f"{path}.npz", sha256=digest, rows=rows + [0.0, 1.0, 0.0, 0.0])
        _, back = read_profiles(path)
        assert np.array_equal(back[:, 0], rows[:, 1] + 1.0)

    @pytest.mark.parametrize("edit", ["one_byte", "reordered"])
    def test_stale_copy_ignored_and_replaced(self, rng, tmp_path, edit):
        path = tmp_path / "profiles.csv"
        stamps, points = np.repeat(0.1 * np.arange(6), 3), rng.normal(size=(18, 3))
        dataio.write_profiles(path, stamps, points)
        old_copy = path.with_name("profiles.csv.npz").read_bytes()
        if edit == "one_byte":
            text = path.read_bytes()
            i = text.index(b"1", len(b"t,x,y,z\n"))
            path.write_bytes(text[:i] + b"2" + text[i + 1:])
        else:
            swapped = np.r_[0:3, 12:15, 6:12, 3:6, 15:18]  # profiles 1 and 4
            dataio.write_profiles(path, stamps[swapped], points[swapped])
            path.with_name("profiles.csv.npz").write_bytes(old_copy)
        back = read_profiles(path)
        digest, rows = stored(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        expect = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows.tobytes() == expect.tobytes()
        assert_same_rows(back, (expect[:, 0], expect[:, 1:]))

    @pytest.mark.parametrize(
        "kind",
        ["truncated", "not_zip", "bare_npy", "extra_key", "wrong_shape", "wrong_dtype",
         "big_endian", "fortran_order", "non_finite", "digest_array"],
    )
    def test_bad_copy_is_a_miss(self, rng, tmp_path, kind):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *awkward_rows(rng))
        miss_copy = path.with_name("profiles.csv.npz").read_bytes()
        expect = read_profiles(path)
        digest, rows = stored(path)
        copy = path.with_name("profiles.csv.npz")
        bad = {
            "wrong_shape": {"rows": rows[:, :3]},
            "wrong_dtype": {"rows": rows.view(np.int64)},
            "big_endian": {"rows": rows.astype(">f8")},
            "fortran_order": {"rows": np.asfortranarray(rows)},
            "non_finite": {"rows": np.where(rows == 3.0, np.nan, rows)},
            "extra_key": {"rows": rows, "more": rows},
            "digest_array": {"rows": rows, "sha256": np.array([digest])},
        }
        if kind == "truncated":
            copy.write_bytes(miss_copy[: len(miss_copy) // 2])
        elif kind == "not_zip":
            copy.write_bytes(b"t,x,y,z\n0,1,2,3\n")
        elif kind == "bare_npy":
            with open(copy, "wb") as f:
                np.save(f, rows)
        else:
            with open(copy, "wb") as f:
                np.savez(f, **{"sha256": digest, **bad[kind]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_rows(read_profiles(path), expect)
        assert copy.read_bytes() == miss_copy

    def test_unwritable_copy_is_skipped(self, rng, tmp_path):
        path = tmp_path / "profiles.csv"
        (tmp_path / "profiles.csv.npz").mkdir()
        rows = awkward_rows(rng)
        dataio.write_profiles(path, *rows)
        assert_same_rows(read_profiles(path), rows)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profiles.csv", "profiles.csv.npz"]
        assert (tmp_path / "profiles.csv.npz").is_dir()

    @pytest.mark.parametrize(
        "body, error, match",
        [
            ("0.0,1.0,nope,3.0\n", ValueError, "malformed profile CSV"),
            ("0.0,1.0,2.0,3.0\n0.0,1.0,2.0\n", ValueError, "malformed profile CSV"),
            ("0.0,1.0,2.0\n", ValueError, "expected 4 columns, found 3"),
            ("0.0,1.0,2.0,3.0\n0.1,inf,2.0,3.0\n", dataio.InputRowError, "data row 2 holds"),
        ],
    )
    def test_csv_errors_unchanged_beside_an_old_copy(self, rng, tmp_path, body, error, match):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *awkward_rows(rng))
        path.write_text("t,x,y,z\n" + body)
        with pytest.raises(error, match=f"{re.escape(str(path))}: {match}"):
            read_profiles(path)

    def test_header_only_writes_no_copy(self, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, *no_rows())
        assert_same_rows(read_profiles(path), no_rows())
        assert [p.name for p in tmp_path.iterdir()] == ["profiles.csv"]

    def test_digest_reported_and_chunked(self, rng, tmp_path):
        path = tmp_path / "profiles.csv"
        dataio.write_profiles(path, np.zeros(40_000), rng.normal(size=(40_000, 3)))
        assert path.stat().st_size > 2 * (1 << 20)  # more than two chunks
        expect = hashlib.sha256(path.read_bytes()).hexdigest()
        assert dataio.sha256_file(path) == expect
        path.with_name("profiles.csv.npz").unlink()
        for _ in range(2):  # a miss that writes the copy under the digest, then a hit
            _, back = dataio.read_profiles(path, expect)
            assert stored(path)[0] == expect
            assert back.tobytes() == stored(path)[1][:, 1:].tobytes()
        (tmp_path / "empty").write_bytes(b"")
        assert dataio.sha256_file(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


def still(times):
    """A trajectory that rests at the origin at ``times``."""
    return Trajectory(times, np.tile(np.eye(4), (len(times), 1, 1)))


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
        back = dataio.place_loop_closures(path, dataio.read_loop_closures(path), still(times))
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
            rows = dataio.read_loop_closures(path)
            assert rows.shape == (0, 20)
            trajectory = dataio.insert_closure_nodes(path, rows, still(times))
            assert np.array_equal(trajectory.times, times)
            assert dataio.place_loop_closures(path, rows, still(times)) == []
        path.write_text(path.read_text() + "0.0,5.0,nope\n")
        expect = f"{re.escape(str(path))}: malformed loop-closure CSV"
        with pytest.raises(ValueError, match=expect):
            dataio.read_loop_closures(path)

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
        with pytest.raises(dataio.InputRowError, match=f"{re.escape(str(path))}: data row 2") as info:
            dataio.read_loop_closures(path)
        assert info.value.row == 2

    def test_unresolvable_time_raises(self, rng, tmp_path):
        times = np.arange(10) * 1.0
        meas = [
            LoopClosureMeasurement(0, 5, random_pose(rng), np.eye(6) * 1e-4),
            LoopClosureMeasurement(2, 7, random_pose(rng), np.eye(6) * 1e-4),
        ]
        path = tmp_path / "lc.csv"
        dataio.write_loop_closures(path, meas, times)
        rows = dataio.read_loop_closures(path)
        moved = times.copy()
        moved[7] += 0.7
        with pytest.raises(dataio.InputRowError) as info:
            dataio.place_loop_closures(path, rows, still(moved))
        assert isinstance(info.value, ValueError)
        assert info.value.row == 2
        assert str(info.value) == (
            f"{path}: data row 2 holds a closure time more than half a sample period "
            "from every node"
        )
        # of two such rows, the first is named
        moved[5] += 0.7
        with pytest.raises(dataio.InputRowError, match=f"{re.escape(str(path))}: data row 1 "):
            dataio.place_loop_closures(path, rows, still(moved))

    def test_misordered_times_raise(self, tmp_path):
        times = np.arange(10) * 1.0
        path = tmp_path / "lc.csv"
        for pair in ((5, 5.3), (7, 2)):
            rows = np.zeros((2, 20))
            rows[:, :2] = (1.0, 3.0), pair  # t_l2 on t_l1's node, then before it
            rows[:, 2:11] = np.eye(3).ravel()
            rows[:, 14:] = 1e-4
            dataio.write_rows(path, "header", rows)
            with pytest.raises(dataio.InputRowError) as info:
                dataio.place_loop_closures(path, dataio.read_loop_closures(path), still(times))
            assert info.value.row == 2
            assert str(info.value).startswith(f"{path}: data row 2 holds a t_l1 that")

    def test_inserted_nodes(self, rng, tmp_path):
        # nodes at 0..9 s without 4, 5 and 6: a gap of 4 s from 3 to 7 s
        times = np.delete(np.arange(10.0), [4, 5, 6])
        poses = np.stack([random_pose(rng) for _ in times])
        trajectory = Trajectory(times, poses)
        path = tmp_path / "lc.csv"
        rows = np.zeros((4, 20))
        # 4.2 and 4.5 lie within half a period (0.5 s) of each other and
        # share a node; 5.0 lies 0.8 s past 4.2 and gets its own; 9.0 is a node
        rows[:, :2] = (4.5, 9.0), (4.2, 5.0), (0.0, 3.2), (5.0, 8.0)
        trajectory2 = dataio.insert_closure_nodes(path, rows, trajectory)
        assert trajectory2.times.tolist() == [0, 1, 2, 3, 4.2, 5, 7, 8, 9]
        assert np.array_equal(trajectory2.poses[[4, 5]], trajectory.pose_at([4.2, 5.0]))
        idx, on_node = trajectory2.nearest_nodes(rows[:, :2])
        assert on_node.all()
        assert idx.tolist() == [[4, 8], [4, 5], [0, 3], [5, 7]]
        rows[2, 0] = -0.6  # off-node and outside the span
        with pytest.raises(dataio.InputRowError) as info:
            dataio.insert_closure_nodes(path, rows, trajectory)
        assert info.value.row == 3
        assert str(info.value) == (
            f"{path}: data row 3 holds a closure time outside the trajectory's time span"
        )
        rows[2, 0] = -0.4  # outside the span, but lands on node 0
        assert len(dataio.insert_closure_nodes(path, rows, trajectory)) == 9


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
