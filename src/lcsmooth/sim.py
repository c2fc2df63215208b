"""Seeded desk-scale simulator for the survey experiment protocols.

Generates a lawnmower-plus-tie-line ground-truth trajectory (piecewise
constant body velocity, smoothed low-radius turns), a dead-reckoning-style
degraded prior, synthetic line-scanner profiles over an analytic terrain,
noisy loop-closure measurements at path crossings, and uniformly sampled
outlier replacements for the Monte-Carlo robustness protocol.

All randomness flows through explicit seeds; a fixed seed reproduces every
output bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lie
from .factors import LoopClosureMeasurement
from .frontend import LaserProfile
from .trajectory import Trajectory


@dataclass
class TerrainSpec:
    """Analytic height field: flat seabed plus Gaussian bumps.

    Depth is NED-down positive; bumps rise toward the surface.  Each bump is
    (x, y, amplitude_m, sigma_m).
    """

    base_depth: float = 10.0
    bumps: list = field(default_factory=list)

    def depth(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.full(np.broadcast_shapes(x.shape, y.shape), self.base_depth)
        for bx, by, amp, sig in self.bumps:
            d = d - amp * np.exp(-((x - bx) ** 2 + (y - by) ** 2) / (2.0 * sig**2))
        return d

    def depth_grad(self, x, y):
        """``(depth, d depth / dx, d depth / dy)``; the depth is ``depth(x, y)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.full(np.broadcast_shapes(x.shape, y.shape), self.base_depth, dtype=float)
        gx, gy = np.zeros((2, *d.shape))
        for bx, by, amp, sig in self.bumps:
            dx, dy = x - bx, y - by
            e = amp * np.exp(-(dx**2 + dy**2) / (2.0 * sig**2))
            d -= e
            gx += e * dx / sig**2
            gy += e * dy / sig**2
        return d, gx, gy


@dataclass
class ScannerSpec:
    rate: float = 20.0
    beams: int = 112
    fov_deg: float = 60.0
    noise_sigma: float = 0.01


@dataclass
class DriftSpec:
    """Dead-reckoning degradation model.

    ``psd`` gives per-axis white-increment PSDs in twist order (phi, rho);
    ``vel_bias`` is a constant world-frame velocity error (m/s), the dominant
    slowly-accumulating drift term; ``vel_psd`` gives per-axis PSDs of a
    random walk on the velocity error (attitude rows body-frame, translation
    rows world-frame so the drift does not cancel across opposite survey
    lanes); ``heading_bias`` is a deterministic yaw rate error in rad/s.
    Roll, pitch, and depth axes default to (near) zero so the directly
    observable states stay good, as they do for the fielded systems this
    mimics.
    """

    psd: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 1e-10, 1e-8, 1e-8, 0.0])
    )
    vel_bias: np.ndarray = field(
        default_factory=lambda: np.array([7.5e-4, 7.5e-4, 0.0])
    )
    vel_psd: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 2.5e-10, 2.5e-10, 0.0])
    )
    heading_bias: float = 1e-6


@dataclass
class SimConfig:
    seed: int = 0
    passes: int = 8
    pass_length: float = 55.0
    lane_spacing: float = 7.0
    tie_margin: float = 10.0
    turn_radius: float = 2.5
    speed: float = 1.0
    node_rate: float = 10.0
    terrain: TerrainSpec = field(default_factory=TerrainSpec)
    scanner: ScannerSpec = field(default_factory=ScannerSpec)
    drift: DriftSpec = field(default_factory=DriftSpec)
    lc_sigma_phi: float = np.deg2rad(0.2)
    lc_sigma_rho: float = 0.02


def default_config(seed):
    """Standard eight-pass survey with bump features along the tie-line corridor."""
    cfg = SimConfig(seed=seed)
    bumps = []
    for i in range(cfg.passes):
        yc = i * cfg.lane_spacing
        bumps.append((-1.6, yc - 1.4, 2.2, 1.2))
        bumps.append((1.8, yc + 1.1, 1.5, 0.9))
        bumps.append((0.3, yc + 2.6, 0.9, 0.7))
        bumps.append((-0.5, yc - 3.0, 1.2, 0.8))
    # broad background undulation for texture away from crossings
    bumps.append((-15.0, 20.0, 1.5, 12.0))
    bumps.append((12.0, 40.0, 1.0, 9.0))
    cfg.terrain = TerrainSpec(base_depth=10.0, bumps=bumps)
    return cfg


# ---------------------------------------------------------------------------
# Ground-truth path construction

# the path comes down from the tie line to the first lane this far (m)
# east of the lane ends
APPROACH_OFFSET = 7.5


def _fillet_legs(waypoints, radius, speed):
    """Straight/arc legs along a waypoint polyline with filleted corners.

    Returns (length_or_angle, yaw_rate) legs: straights carry (length, 0),
    arcs carry (arc_length, yaw_rate).
    """
    wps = [np.asarray(w, dtype=float) for w in waypoints]
    legs = []
    cursor = wps[0]
    for i in range(1, len(wps) - 1):
        a, b, c = cursor, wps[i], wps[i + 1]
        u1 = (b - a) / np.linalg.norm(b - a)
        u2 = (c - b) / np.linalg.norm(c - b)
        cross = u1[0] * u2[1] - u1[1] * u2[0]
        dot = float(np.clip(np.dot(u1, u2), -1.0, 1.0))
        turn = math.atan2(cross, dot)
        if abs(turn) < 1e-9:
            continue
        setback = radius * math.tan(abs(turn) / 2.0)
        straight = np.linalg.norm(b - a) - setback
        if straight < 0:
            raise ValueError("turn radius too large for waypoint spacing")
        legs.append((straight, 0.0))
        legs.append((radius * abs(turn), math.copysign(speed / radius, turn)))
        cursor = b + setback * u2
    legs.append((np.linalg.norm(wps[-1] - cursor), 0.0))
    return legs


def _survey_waypoints(cfg: SimConfig):
    half = cfg.pass_length / 2.0
    y_top = (cfg.passes - 1) * cfg.lane_spacing
    wps = [(0.0, -cfg.tie_margin), (0.0, y_top + cfg.tie_margin)]
    x_entry = half + APPROACH_OFFSET
    wps.append((x_entry, y_top + cfg.tie_margin))
    wps.append((x_entry, y_top))
    # serpentine lanes from the top lane down
    east = False
    for i in range(cfg.passes - 1, -1, -1):
        y = i * cfg.lane_spacing
        wps.append((half if east else -half, y))
        if i > 0:
            wps.append((half if east else -half, y - cfg.lane_spacing))
        east = not east
    return wps


def generate_truth(cfg: SimConfig) -> Trajectory:
    """Constant-speed survey trajectory with piecewise-constant body velocity.

    Leg durations are quantized to whole node periods and arc yaw rates
    adjusted so headings stay exact; each node step is then an exact
    constant-twist integration, so the forward-Euler velocity consistency
    holds to machine precision away from leg switches.
    """
    dt = 1.0 / cfg.node_rate
    wps = _survey_waypoints(cfg)
    raw_legs = _fillet_legs(wps, cfg.turn_radius, cfg.speed)

    # initial pose: at first waypoint, heading along the first segment (+y)
    d0 = np.asarray(wps[1], float) - np.asarray(wps[0], float)
    yaw0 = math.atan2(d0[1], d0[0])
    pose = lie.make_pose(
        lie.so3_exp(np.array([0.0, 0.0, yaw0])),
        np.array([wps[0][0], wps[0][1], 0.0]),
    )

    poses = [pose]
    for length, yaw_rate in raw_legs:
        if length <= 0:
            continue
        steps = max(1, round(length / (cfg.speed * dt)))
        if yaw_rate == 0.0:
            w = np.array([0.0, 0.0, 0.0, cfg.speed, 0.0, 0.0])
        else:
            # keep the turn angle exact under step quantization
            angle = yaw_rate * length / cfg.speed
            w = np.array([0.0, 0.0, angle / (steps * dt), cfg.speed, 0.0, 0.0])
        step = lie.se3_exp(dt * w)
        for _ in range(steps):
            poses.append(poses[-1] @ step)
    return Trajectory(times=np.arange(len(poses)) * dt, poses=np.stack(poses))


def degrade(truth: Trajectory, cfg: SimConfig) -> Trajectory:
    """Dead-reckoned prior: re-integrate true increments with frame errors.

    Each step commits a body-frame twist error made of a white increment
    (``psd``), the integrated velocity error (constant world-frame
    ``vel_bias`` plus the ``vel_psd`` random walk), and the deterministic
    heading bias.  A pure heading bias bends subsequent motion, so the
    planar displacement error grows superlinearly along a straight pass; a
    zero-noise, zero-bias config returns the truth exactly.  The noise
    draws come from ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    n = len(truth)
    dts = np.diff(truth.times)
    sigmas = np.sqrt(np.asarray(cfg.drift.psd, dtype=float) * dts[:, None])
    eps = rng.standard_normal((n - 1, 6)) * sigmas
    vel_sig = np.sqrt(np.asarray(cfg.drift.vel_psd, dtype=float) * dts[:, None])
    vel_err = np.cumsum(rng.standard_normal((n - 1, 6)) * vel_sig, axis=0)
    vel_err[:, 3:] += np.asarray(cfg.drift.vel_bias, dtype=float)
    eps[:, :3] += vel_err[:, :3] * dts[:, None]
    body_rate = np.einsum(
        "kij,kj->ki", truth.poses[:-1, :3, :3].transpose(0, 2, 1), vel_err[:, 3:]
    )
    eps[:, 3:] += body_rate * dts[:, None]
    eps[:, 2] += cfg.drift.heading_bias * dts
    if not eps.any():
        return Trajectory(times=truth.times.copy(), poses=truth.poses.copy())
    poses = np.empty_like(truth.poses)
    poses[0] = truth.poses[0]
    increments = lie.se3_inv(truth.poses[:-1]) @ truth.poses[1:]
    err = lie.se3_exp(-eps)
    for k in range(1, n):
        poses[k] = poses[k - 1] @ increments[k - 1] @ err[k - 1]
    return Trajectory(times=truth.times.copy(), poses=poses)


# ---------------------------------------------------------------------------
# Synthetic laser scans


# Profiles ray-cast together.  Temporaries scale with it; 64-256 ran fastest
# on the standard survey, 1,024 and more ran slower.
_CHUNK_PROFILES = 256


def synth_scan(truth: Trajectory, terrain: TerrainSpec, scanner: ScannerSpec, seed):
    """Line-scanner profiles along the trajectory by ray/terrain intersection.

    Rays fan across-track in the sensor frame; each is intersected with the
    analytic terrain (Newton refinement from the flat-seabed solution) and
    reported in the sensor frame, which is the body frame, with isotropic
    noise.  Rays that miss or graze the terrain are dropped, and so are
    profiles left with no ray.

    Newton runs on chunks of ``_CHUNK_PROFILES`` profiles at once, one
    ``TerrainSpec.depth_grad`` call per chunk iteration.  Each
    profile keeps its own stopping rule: it stops after the iteration in
    which its own max |step| < 1e-12, or after 25 iterations, and only the
    rays of profiles still iterating are updated.  The arithmetic per ray and
    the noise drawn per profile, in profile order, are those of casting each
    profile alone, so the output does not depend on the chunk size.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / scanner.rate
    stamps = np.arange(truth.times[0], truth.times[-1] + 1e-9, dt)
    stamps = stamps[(stamps >= truth.times[0]) & (stamps <= truth.times[-1])]
    sensor_poses = truth.pose_at(stamps)
    half = np.deg2rad(scanner.fov_deg) / 2.0
    angles = np.linspace(-half, half, scanner.beams)
    dirs = np.stack([np.zeros_like(angles), np.sin(angles), np.cos(angles)], axis=1)

    profiles = []
    for start in range(0, len(stamps), _CHUNK_PROFILES):
        chunk = slice(start, start + _CHUNK_PROFILES)
        poses = sensor_poses[chunk]
        d = dirs @ poses[:, :3, :3].transpose(0, 2, 1)
        # rays that point down enough, in profile order; ``pid`` is sorted
        pid, beam = np.nonzero(d[:, :, 2] > 0.05)
        o = poses[pid, :3, 3]
        d = d[pid, beam]
        s = (terrain.base_depth - o[:, 2]) / d[:, 2]
        active = np.arange(len(pid))
        for _ in range(25):
            if active.size == 0:
                break
            oa, da, sa = o[active], d[active], s[active]
            x = oa[:, 0] + sa * da[:, 0]
            y = oa[:, 1] + sa * da[:, 1]
            depth, gx, gy = terrain.depth_grad(x, y)
            f = oa[:, 2] + sa * da[:, 2] - depth
            fp = da[:, 2] - gx * da[:, 0] - gy * da[:, 1]
            fp = np.where(np.abs(fp) < 1e-6, 1e-6, fp)
            step = f / fp
            s[active] = sa - step
            # a profile iterates on while any of its steps is >= 1e-12 (or NaN)
            iterating = np.zeros(len(poses), dtype=bool)
            iterating[pid[active[~(np.abs(step) < 1e-12)]]] = True
            active = active[iterating[pid[active]]]
        x = o[:, 0] + s * d[:, 0]
        y = o[:, 1] + s * d[:, 1]
        residual = np.abs(o[:, 2] + s * d[:, 2] - terrain.depth(x, y))
        hit = (s > 0.1) & (residual < 1e-8)
        pts_sensor = s[hit, None] * dirs[beam[hit]]
        if scanner.noise_sigma > 0:
            pts_sensor = pts_sensor + rng.standard_normal(pts_sensor.shape) * (
                scanner.noise_sigma
            )
        counts = np.bincount(pid[hit], minlength=len(poses))
        for t, n, pts in zip(
            stamps[chunk], counts, np.split(pts_sensor, np.cumsum(counts)[:-1])
        ):
            if n:
                profiles.append(LaserProfile(float(t), pts))
    return profiles


# ---------------------------------------------------------------------------
# Loop-closure synthesis and corruption


def synth_loop_closures(truth: Trajectory, crossings, sigma_phi, sigma_rho, seed):
    """Truth-consistent loop closures with isotropic Gaussian noise.

    ``crossings`` is a list of objects with idx1/idx2 node indices (as
    produced by the crossing detector).  The stated sigmas populate the
    measurement covariance.
    """
    rng = np.random.default_rng(seed)
    cov = np.diag([sigma_phi**2] * 3 + [sigma_rho**2] * 3)
    out = []
    for c in crossings:
        noise = rng.standard_normal(6) * np.array([sigma_phi] * 3 + [sigma_rho] * 3)
        xi = (
            lie.se3_inv(truth.poses[c.idx1])
            @ truth.poses[c.idx2]
            @ lie.se3_exp(noise)
        )
        out.append(LoopClosureMeasurement(c.idx1, c.idx2, xi, cov.copy()))
    return out


def inject_outliers(measurements, count, seed):
    """Replace `count` randomly chosen loop closures with uniform outliers.

    Outlier positions are sampled uniformly on the 5 m planar search disc
    with the depth component drawn from [-0.5, 0.5] or the range-flip band
    [13.5, 14.5] (equal probability); attitude angles are uniform on
    (-pi, pi] per axis.
    """
    if count > len(measurements):
        raise ValueError("cannot replace more measurements than exist")
    rng = np.random.default_rng(seed)
    out = list(measurements)
    if count == 0:
        return out
    chosen = rng.choice(len(out), size=count, replace=False)
    for i in chosen:
        radius = 5.0 * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if rng.uniform() < 0.5:
            r_z = rng.uniform(-0.5, 0.5)
        else:
            r_z = rng.uniform(13.5, 14.5)
        r_out = np.array([radius * np.cos(theta), radius * np.sin(theta), r_z])
        phi = rng.uniform(-np.pi, np.pi, size=3)
        c_out = (
            lie.so3_exp(np.array([0.0, 0.0, phi[2]]))
            @ lie.so3_exp(np.array([0.0, phi[1], 0.0]))
            @ lie.so3_exp(np.array([phi[0], 0.0, 0.0]))
        )
        m = out[i]
        out[i] = LoopClosureMeasurement(
            m.idx_l1, m.idx_l2, lie.make_pose(c_out, r_out), m.cov.copy()
        )
    return out
