"""File formats: trajectory/profile/loop-closure CSV, flat config, manifest.

Rotations are stored as unit quaternions (Hamilton convention, scalar first;
``lie`` converts them) only at this boundary; everything in memory is
matrices.  Floats are written with 17 significant digits so write-then-read
round-trips of the stored numbers are exact; a rotation matrix comes back
through its quaternion to rounding (about 1e-16).

CSV rows are formatted one ``%`` per block, a profile's timestamp once per
profile: the bytes of ``np.savetxt(..., fmt="%.17g", delimiter=",")``.

The profile CSV is the file of record.  Beside it, ``<csv>.npz`` caches its
parsed rows under the sha256 of its bytes, so a dataset's point cloud is
parsed as text once; a copy that does not match is ignored and replaced.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import lie
from .factors import LoopClosureMeasurement, NonFiniteInputError
from .frontend import LaserProfile
from .trajectory import Trajectory

_FMT = "%.17g"
_CHUNK = 1 << 20  # bytes per read while hashing a file


def sha256_file(path):
    """Hex sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _write_block(f, prefix, data):
    """Rows of a 2-D array as CSV lines, each led by the literal ``prefix``."""
    line = prefix + ",".join([_FMT] * data.shape[1]) + "\n"
    f.write(line * len(data) % tuple(data.ravel().tolist()))


def write_rows(path, header, data):
    """A header line, then one CSV line per row (per value of 1-D data)."""
    data = np.asarray(data, dtype=float)
    with open(path, "w") as f:
        f.write(header + "\n")
        _write_block(f, "", data[:, None] if data.ndim == 1 else data)


# ---------------------------------------------------------------------------
# Trajectory CSV: t, rx, ry, rz, qw, qx, qy, qz


def write_trajectory(path, trajectory: Trajectory):
    q = lie.quat_from_rotation(trajectory.poses[:, :3, :3])
    data = np.hstack([trajectory.times[:, None], trajectory.positions, q])
    write_rows(path, "t,rx,ry,rz,qw,qx,qy,qz", data)


def read_trajectory(path) -> Trajectory:
    data = _load_csv(path, "trajectory")
    if data.shape[1] != 8:
        raise ValueError(f"{path}: expected 8 columns, found {data.shape[1]}")
    # a stored rotation has a unit quaternion; one near zero has no direction
    _reject_rows(path, np.linalg.norm(data[:, 4:8], axis=1) < 1e-6,
                 "holds a quaternion of norm below 1e-6")
    C = lie.rotation_from_quat(data[:, 4:8])
    poses = lie.make_pose(C, data[:, 1:4])
    return Trajectory(times=data[:, 0], poses=poses)


# ---------------------------------------------------------------------------
# Profiles CSV: t, x, y, z (one point per row, grouped by timestamp)


def write_profiles(path, profiles):
    """The CSV, then the binary copy of its rows beside it (see ``read_profiles``)."""
    rows = np.empty((sum(len(p.points) for p in profiles), 4))
    start = 0
    with open(path, "w") as f:
        f.write("t,x,y,z\n")
        for p in profiles:
            _write_block(f, _FMT % p.timestamp + ",", p.points)
            stop = start + len(p.points)
            rows[start:stop, 0] = p.timestamp
            rows[start:stop, 1:] = p.points
            start = stop
    if len(rows):
        _write_copy(path, sha256_file(path), rows)


def _copy_path(path):
    return Path(f"{path}.npz")


def _read_copy(path, digest):
    """The rows that the copy beside the CSV ``path`` holds for the CSV bytes
    whose sha256 is ``digest``, or None.

    A copy that is missing, stale or unreadable, or that is not what
    ``_write_copy`` writes (keys, shape, dtype, layout, finite values), is a
    miss and never an error.
    """
    try:
        # np.load leaves a file it opened open when it is no zip archive
        with open(_copy_path(path), "rb") as f:
            copy = np.load(f, allow_pickle=False)
            if (not isinstance(copy, np.lib.npyio.NpzFile)  # a bare .npy array
                    or sorted(copy.files) != ["rows", "sha256"]
                    or str(copy["sha256"]) != digest):
                return None
            rows = copy["rows"]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if (rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != 4
            or not rows.flags.c_contiguous or not np.all(np.isfinite(rows))):
        return None
    return rows


def _write_copy(path, digest, rows):
    """Store ``rows`` under ``digest`` beside the CSV ``path``.

    The copy goes to a temporary file that is then renamed over the old one,
    so no reader sees a partial copy.  A copy that cannot be written (a
    read-only directory, say) is skipped: the CSV stays the file of record.
    """
    target = _copy_path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, sha256=digest, rows=rows)
        os.replace(tmp, target)
    except OSError:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


class InputRowError(ValueError):
    """A data row of an input CSV that the pipeline cannot use; ``row``
    counts from 1 below the header, as the message does."""

    def __init__(self, path, row, problem):
        super().__init__(f"{path}: data row {row} {problem}")
        self.row = row


def _reject_rows(path, bad, problem):
    """Raise InputRowError for the first data row that ``bad`` flags."""
    if np.any(bad):
        raise InputRowError(path, int(np.argmax(bad)) + 1, problem)


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


def read_profiles(path, digests=None):
    """The profiles of a ``t, x, y, z`` CSV, one per run of equal stamps.

    The rows come from the binary copy beside the CSV when it holds them for
    the CSV's current bytes; otherwise the CSV is parsed and the copy
    written.  The copy is a cache: the profiles, and every error, are those
    of the CSV.  With ``digests``, the CSV's sha256 is stored in it under
    the file's name.
    """
    digest = sha256_file(path)
    if digests is not None:
        digests[Path(path).name] = digest
    data = _read_copy(path, digest)
    if data is None:
        data = _load_csv(path, "profile")
        if data.size == 0:
            return []
        if data.shape[1] != 4:
            raise ValueError(f"{path}: expected 4 columns, found {data.shape[1]}")
        _write_copy(path, digest, data)
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
    header = "t_l1,t_l2," + ",".join(
        [f"c{i}{j}" for i in range(3) for j in range(3)]
    ) + ",rx,ry,rz," + ",".join([f"var{i}" for i in range(6)])
    write_rows(path, header, np.reshape(rows, (-1, 20)))


def read_loop_closures(path):
    """The rows of a loop-closure CSV, as an (L, 20) array."""
    data = _load_csv(path, "loop-closure")
    if data.size and data.shape[1] != 20:
        raise ValueError(f"{path}: expected 20 columns, found {data.shape[1]}")
    return data.reshape(-1, 20)


def insert_closure_nodes(path, rows, trajectory):
    """``trajectory`` with an interpolated node at each closure time of
    ``rows`` that lands on no node; taken in increasing order, a time within
    ``snap_tolerance()`` of a node inserted before it shares that node."""
    stamps = rows[:, :2]
    _, on_node = trajectory.nearest_nodes(stamps)
    outside = (stamps < trajectory.times[0]) | (stamps > trajectory.times[-1])
    _reject_rows(path, np.any(outside & ~on_node, axis=1),
                 "holds a closure time outside the trajectory's time span")
    tolerance = trajectory.snap_tolerance()
    new = []
    for t in np.unique(stamps[~on_node]):
        if not new or t - new[-1] > tolerance:
            new.append(t)
    at = np.searchsorted(trajectory.times, new)
    return Trajectory(
        times=np.insert(trajectory.times, at, new),
        poses=np.insert(trajectory.poses, at, trajectory.pose_at(new), axis=0),
    )


def place_loop_closures(path, rows, trajectory):
    """The loop closures of ``rows`` on the nodes of ``trajectory``, on
    which each of their times must land, t_l1 on an earlier node than t_l2."""
    idx, on_node = trajectory.nearest_nodes(rows[:, :2])
    _reject_rows(path, ~np.all(on_node, axis=1),
                 "holds a closure time more than half a sample period from every node")
    _reject_rows(path, idx[:, 0] >= idx[:, 1],
                 "holds a t_l1 that does not land on an earlier node than its t_l2")
    return [
        LoopClosureMeasurement(
            int(i1), int(i2), lie.make_pose(row[2:11].reshape(3, 3), row[11:14]),
            np.diag(row[14:20]),
        )
        for (i1, i2), row in zip(idx, rows)
    ]


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

