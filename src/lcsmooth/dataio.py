"""File formats: trajectory/profile/loop-closure CSV, PLY clouds, flat config.

Rotations are stored as unit quaternions (Hamilton convention, scalar first;
``lie`` converts them) only at this boundary; everything in memory is
matrices.  Floats are written with 17 significant digits so write-then-read
round-trips of the stored numbers are exact; a rotation matrix comes back
through its quaternion to rounding (about 1e-16).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import lie
from .factors import LoopClosureMeasurement, NonFiniteInputError
from .frontend import LaserProfile
from .trajectory import Trajectory

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Trajectory CSV: t, rx, ry, rz, qw, qx, qy, qz


def write_trajectory(path, trajectory: Trajectory):
    q = lie.quat_from_rotation(trajectory.poses[:, :3, :3])
    data = np.hstack(
        [trajectory.times[:, None], trajectory.positions, q]
    )
    header = "t,rx,ry,rz,qw,qx,qy,qz"
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=header, comments="")


def read_trajectory(path) -> Trajectory:
    data = _load_csv(path, "trajectory")
    if data.shape[1] != 8:
        raise ValueError(f"{path}: expected 8 columns, found {data.shape[1]}")
    C = lie.rotation_from_quat(data[:, 4:8])
    poses = lie.make_pose(C, data[:, 1:4])
    return Trajectory(times=data[:, 0], poses=poses)


# ---------------------------------------------------------------------------
# Profiles CSV: t, x, y, z (one point per row, grouped by timestamp)


def write_profiles(path, profiles):
    rows = []
    for p in profiles:
        stamped = np.hstack(
            [np.full((len(p.points), 1), p.timestamp), p.points]
        )
        rows.append(stamped)
    data = np.vstack(rows) if rows else np.zeros((0, 4))
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header="t,x,y,z", comments="")


def _load_csv(path, what):
    """The data rows below the header line, as floats.

    Raises ValueError on a malformed file and NonFiniteInputError, naming
    the file and the first data row (counted from 1 below the header), on a
    NaN or infinite value.
    """
    with open(path) as f:
        f.readline()  # header
        header_only = not f.read(1)
    # np.loadtxt warns on a file with no rows
    if header_only:
        return np.zeros((0, 0))
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed {what} CSV: {exc}") from exc
    bad = ~np.all(np.isfinite(data), axis=1)
    if np.any(bad):
        row = int(np.argmax(bad)) + 1
        raise NonFiniteInputError(f"{path}: data row {row} holds a non-finite value", row)
    return data


def read_profiles(path):
    data = _load_csv(path, "profile")
    if data.size == 0:
        return []
    if data.shape[1] != 4:
        raise ValueError(f"{path}: expected 4 columns, found {data.shape[1]}")
    profiles = []
    # consecutive rows with the same stamp form one profile
    boundaries = np.flatnonzero(np.diff(data[:, 0]) != 0) + 1
    for chunk in np.split(data, boundaries):
        profiles.append(LaserProfile(float(chunk[0, 0]), chunk[:, 1:4]))
    return profiles


# ---------------------------------------------------------------------------
# Loop-closure CSV: t_l1, t_l2, 9 rotation entries (row-major), 3 position
# entries, 6 covariance diagonal entries (phi then rho)


def write_loop_closures(path, measurements, times):
    rows = []
    for m in measurements:
        C = m.xi_meas[:3, :3].reshape(-1)
        r = m.xi_meas[:3, 3]
        var = np.diag(m.cov)
        rows.append(
            np.concatenate([[times[m.idx_l1], times[m.idx_l2]], C, r, var])
        )
    data = np.vstack(rows) if rows else np.zeros((0, 20))
    header = "t_l1,t_l2," + ",".join(
        [f"c{i}{j}" for i in range(3) for j in range(3)]
    ) + ",rx,ry,rz," + ",".join([f"var{i}" for i in range(6)])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=header, comments="")


class UnresolvedClosureTimeError(ValueError):
    """Loop-closure timestamps that land on no node; ``times`` holds them all."""

    def __init__(self, path, times):
        self.times = np.asarray(times, dtype=float)
        super().__init__(
            f"{path}: loop-closure times {self.times.tolist()} are not within half "
            "a sample period of any node"
        )


def read_loop_closures(path, times):
    """Read loop closures, resolving timestamps to node indices.

    A timestamp must land within half a sample period of a node; otherwise
    an UnresolvedClosureTimeError carries every such timestamp, so the
    caller can insert interpolated nodes at them.
    """
    data = _load_csv(path, "loop-closure")
    if data.size == 0:
        return []
    if data.shape[1] != 20:
        raise ValueError(f"{path}: expected 20 columns, found {data.shape[1]}")
    times = np.asarray(times, dtype=float)
    half_period = 0.5 * np.median(np.diff(times)) if len(times) > 1 else 0.0
    stamps = data[:, :2]
    idx = np.array([[np.argmin(np.abs(times - t)) for t in pair] for pair in stamps])
    unresolved = np.abs(times[idx] - stamps) > half_period + 1e-12
    if np.any(unresolved):
        raise UnresolvedClosureTimeError(path, stamps[unresolved])
    return [
        LoopClosureMeasurement(
            int(i1), int(i2), lie.make_pose(row[2:11].reshape(3, 3), row[11:14]),
            np.diag(row[14:20]),
        )
        for (i1, i2), row in zip(idx, data)
    ]


# ---------------------------------------------------------------------------
# ASCII PLY point clouds: x y z [nx ny nz]


def write_ply(path, points, normals=None):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(points)}\n")
        f.write("property double x\nproperty double y\nproperty double z\n")
        if normals is not None:
            f.write(
                "property double nx\nproperty double ny\nproperty double nz\n"
            )
        f.write("end_header\n")
        data = points if normals is None else np.hstack([points, normals])
        np.savetxt(f, data, fmt=_FMT)


def read_ply(path):
    """Read an ASCII PLY; returns (points, normals or None)."""
    with open(path) as f:
        if f.readline().strip() != "ply":
            raise ValueError(f"{path}: not a PLY file")
        n_vertex = None
        props = []
        for line in f:
            tok = line.split()
            if tok[0] == "element" and tok[1] == "vertex":
                n_vertex = int(tok[2])
            elif tok[0] == "property":
                props.append(tok[2])
            elif tok[0] == "format" and tok[1] != "ascii":
                raise ValueError(f"{path}: only ASCII PLY is supported")
            elif tok[0] == "end_header":
                break
        if n_vertex is None:
            raise ValueError(f"{path}: missing vertex element")
        data = np.loadtxt(f, max_rows=n_vertex, ndmin=2) if n_vertex else np.zeros((0, len(props)))
    has_normals = props[:6] == ["x", "y", "z", "nx", "ny", "nz"]
    points = data[:, :3]
    normals = data[:, 3:6] if has_normals else None
    return points, normals


# ---------------------------------------------------------------------------
# Flat key-value configuration and the dataset manifest


def parse_config_text(text):
    """Flat ``section.key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def read_config(path):
    return parse_config_text(Path(path).read_text())


def write_config(path, values):
    lines = [f"{k} = {v}" for k, v in sorted(values.items())]
    Path(path).write_text("\n".join(lines) + "\n")


def config_hash(values):
    canonical = "\n".join(f"{k} = {v}" for k, v in sorted(values.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, manifest):
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path):
    return json.loads(Path(path).read_text())
