"""Pipeline driver: simulate, closeloops, smooth, evaluate.

Subcommands exchange data through the documented CSV schemas, so each stage
can be run (and re-run) independently.  Exit codes: 0 success, 2 validation
error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio, frontend, metrics, parallel, sim, solver
from .trajectory import Trajectory
from .wnoa import WnoaPsd

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parse_value(key, raw, default):
    """``raw`` read as the type of ``default``; a ValueError names ``key``."""
    try:
        if isinstance(default, bool):
            return _BOOLEANS[raw.lower()]
        if isinstance(default, int):
            return int(raw)
        value = float(raw)
    except (KeyError, ValueError):
        kind = type(default).__name__
        raise ValueError(f"configuration key '{key}': '{raw}' is not a valid {kind}") from None
    if not math.isfinite(value):
        raise ValueError(f"configuration key '{key}' must be finite, got '{raw}'")
    return value


_SOLVER = solver.SolverConfig()
_SIM = sim.SimConfig()
# every number must be positive but these: the keys that may be 0, and
# the keys of either sign
_NONNEGATIVE = {
    "solver.damping", "sim.seed", "sim.scan_noise", "sim.vel_psd", "sim.white_psd_yaw",
    "sim.white_psd_xy", "frontend.frmsd_lambda", "frontend.variation_threshold",
}
_SIGNED = {"sim.vel_bias_x", "sim.vel_bias_y", "sim.heading_bias"}


@dataclass
class PipelineConfig:
    """All tunables, addressable as flat ``section.key`` strings.

    Units follow the hyperparameter conventions of the estimation problem:
    PSDs in rad^2 s^-3 / m^2 s^-3, sigmas in the unit noted per field.
    The ``solver.*``, ``robust.*`` and ``sim.*`` defaults are those of
    ``solver.SolverConfig`` and ``sim.SimConfig``.  A ``frontend.*`` or
    ``sim.*`` key sets the ``frontend.FrontendParams`` or ``sim.SimConfig``
    field of its name, but for the degree keys ``*.lc_sigma_phi`` and the
    ``sim.scan_*`` keys of ``sim.ScannerSpec``.
    """

    # motion-prior PSDs
    wnoa_q_omega: float = 1e-2
    wnoa_q_nu: float = 1e-4
    # relative-pose factor sigmas (rad, m)
    rel_sigma_phi: float = 1e-5
    rel_sigma_rho: float = 1e-3
    # observable-state factor sigmas (deg, m)
    obs_sigma_rp: float = 5.0
    obs_sigma_z: float = 0.25
    # prior factor sigmas (rad, m, rad/s, m/s)
    prior_sigma_phi: float = 1e-3
    prior_sigma_rho: float = 1e-2
    prior_sigma_omega: float = 1e-2
    prior_sigma_nu: float = 1e-1
    # robust loop-closure rejection (deg, m)
    robust_enabled: bool = _SOLVER.robust_cost
    robust_sigma_phi_out: float = float(np.rad2deg(_SOLVER.sigma_phi_out))
    robust_sigma_rho_out: float = _SOLVER.sigma_rho_out
    # solver
    solver_max_iterations: int = _SOLVER.max_iterations
    solver_step_tolerance: float = _SOLVER.step_tolerance
    solver_damping: float = _SOLVER.damping
    # front end
    frontend_delta_r_star: float = 5.0
    frontend_min_time_separation: float = 30.0
    frontend_voxel_cell: float = 0.05
    frontend_normal_neighbors: int = 40
    frontend_submap_time_window: float = 20.0
    frontend_min_submap_points: int = 100
    frontend_icp_max_iterations: int = 20
    frontend_icp_rot_tol: float = 1e-2
    frontend_icp_trans_tol: float = 1e-3
    frontend_frmsd_lambda: float = 0.95
    frontend_min_inlier_fraction: float = 0.2
    frontend_variation_threshold: float = 3e-2
    frontend_lc_sigma_phi: float = 0.2  # deg
    frontend_lc_sigma_rho: float = 0.02  # m
    # simulator
    sim_seed: int = _SIM.seed
    sim_passes: int = _SIM.passes
    sim_pass_length: float = _SIM.pass_length
    sim_lane_spacing: float = _SIM.lane_spacing
    sim_tie_margin: float = _SIM.tie_margin
    sim_turn_radius: float = _SIM.turn_radius
    sim_speed: float = _SIM.speed
    sim_node_rate: float = _SIM.node_rate
    sim_scan_rate: float = _SIM.scanner.rate
    sim_scan_beams: int = _SIM.scanner.beams
    sim_scan_fov: float = _SIM.scanner.fov_deg
    sim_scan_noise: float = _SIM.scanner.noise_sigma
    sim_vel_bias_x: float = _SIM.vel_bias_x
    sim_vel_bias_y: float = _SIM.vel_bias_y
    sim_vel_psd: float = _SIM.vel_psd
    sim_white_psd_yaw: float = _SIM.white_psd_yaw
    sim_white_psd_xy: float = _SIM.white_psd_xy
    sim_heading_bias: float = _SIM.heading_bias
    sim_lc_sigma_phi: float = float(np.rad2deg(_SIM.lc_sigma_phi))  # deg
    sim_lc_sigma_rho: float = _SIM.lc_sigma_rho
    # evaluation
    eval_overlap_gate_cells: float = 5.0  # gate = cells * voxel

    @staticmethod
    def _key(name):
        return name.replace("_", ".", 1)

    def to_flat(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            out[self._key(f.name)] = str(v)
        return out

    @classmethod
    def from_flat(cls, values):
        cfg = cls()
        known = {cls._key(f.name): f for f in fields(cls)}
        for key, raw in values.items():
            f = known.get(key)
            if f is None:
                raise ValueError(f"unknown configuration key '{key}'")
            setattr(cfg, f.name, _parse_value(key, raw, getattr(cfg, f.name)))
        return cfg

    def validate(self):
        """``self``; a ValueError names the first key out of its range."""
        for f in fields(self):
            key, value = self._key(f.name), getattr(self, f.name)
            if isinstance(value, bool) or key in _SIGNED:
                continue
            if key in _NONNEGATIVE and value < 0:
                raise ValueError(f"configuration key '{key}' must not be negative")
            if key not in _NONNEGATIVE and value <= 0:
                raise ValueError(f"configuration key '{key}' must be positive")
        if self.frontend_min_inlier_fraction > 1:
            raise ValueError("configuration key 'frontend.min_inlier_fraction' must be at most 1")
        return self

    # derived objects -------------------------------------------------

    def wnoa_psd(self):
        return WnoaPsd(self.wnoa_q_omega, self.wnoa_q_nu)

    def r_rel(self):
        return np.diag([self.rel_sigma_phi**2] * 3 + [self.rel_sigma_rho**2] * 3)

    def r_obs(self):
        rp = np.deg2rad(self.obs_sigma_rp)
        return np.diag([rp**2, rp**2, self.obs_sigma_z**2])

    def prior_cov(self):
        return np.diag(
            [self.prior_sigma_phi**2] * 3
            + [self.prior_sigma_rho**2] * 3
            + [self.prior_sigma_omega**2] * 3
            + [self.prior_sigma_nu**2] * 3
        )

    def solver_config(self):
        return solver.SolverConfig(
            max_iterations=self.solver_max_iterations,
            step_tolerance=self.solver_step_tolerance,
            robust_cost=self.robust_enabled,
            sigma_phi_out=np.deg2rad(self.robust_sigma_phi_out),
            sigma_rho_out=self.robust_sigma_rho_out,
            damping=self.solver_damping,
        )

    def _by_name(self, cls, section):
        """{field: value} for each field of ``cls`` with a ``section.<field>`` key."""
        values = vars(self)
        return {f.name: values[f"{section}_{f.name}"] for f in fields(cls)
                if f"{section}_{f.name}" in values}

    def frontend_params(self):
        return frontend.FrontendParams(**{
            **self._by_name(frontend.FrontendParams, "frontend"),
            "lc_sigma_phi": np.deg2rad(self.frontend_lc_sigma_phi),
        })

    def sim_config(self):
        cfg = sim.SimConfig(**{
            **self._by_name(sim.SimConfig, "sim"),
            "lc_sigma_phi": np.deg2rad(self.sim_lc_sigma_phi),
            "scanner": sim.ScannerSpec(
                rate=self.sim_scan_rate,
                beams=self.sim_scan_beams,
                fov_deg=self.sim_scan_fov,
                noise_sigma=self.sim_scan_noise,
            ),
        })
        cfg.terrain = sim.survey_terrain(cfg)
        return cfg


def load_config(path, seed):
    cfg = (
        PipelineConfig.from_flat(dataio.read_config(path))
        if path
        else PipelineConfig()
    )
    if seed is not None:
        cfg.sim_seed = seed
    return cfg.validate()


# ---------------------------------------------------------------------------
# Subcommands: each gets the parsed flags and the validated configuration


def _report_head(cfg, **paths):
    """The head of a stage report: the hash of the configuration the stage
    ran with, and ``inputs``, the sha256 of each given file keyed by role."""
    return {
        "config_hash": dataio.config_hash(cfg.to_flat()),
        "inputs": {role: dataio.sha256_file(path) for role, path in paths.items() if path},
    }


def cmd_simulate(args, cfg):
    scfg = cfg.sim_config()
    truth = sim.generate_truth(scfg)
    prior = sim.degrade(truth, scfg)
    profiles = sim.synth_scan(
        truth, scfg.terrain, scfg.scanner, seed=scfg.seed + 1
    )
    # the profile file's rows: each profile's stamp once per point
    stamps = np.repeat([p.timestamp for p in profiles], [len(p.points) for p in profiles])
    points = np.vstack([p.points for p in profiles]) if profiles else np.zeros((0, 3))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_trajectory(out / "truth.csv", truth)
    dataio.write_trajectory(out / "prior.csv", prior)
    dataio.write_profiles(out / "profiles.csv", stamps, points)
    flat = cfg.to_flat()
    dataio.write_config(out / "config.cfg", flat)
    manifest = {
        "seed": scfg.seed,
        "config_hash": dataio.config_hash(flat),
        "nodes": len(truth),
        "profiles": len(profiles),
        "points": len(points),
        "files": ["truth.csv", "prior.csv", "profiles.csv", "config.cfg"],
    }
    dataio.write_manifest(out / "manifest.json", manifest)
    print(f"wrote dataset to {out} ({len(truth)} nodes, {len(profiles)} profiles)")
    return EXIT_OK


def cmd_closeloops(args, cfg):
    dataset = Path(args.dataset)
    head = _report_head(cfg, prior=dataset / "prior.csv", profiles=dataset / "profiles.csv")
    prior = dataio.read_trajectory(dataset / "prior.csv")
    stamps, points = dataio.read_profiles(dataset / "profiles.csv", head["inputs"]["profiles"])
    cloud, rejected = frontend.register_profiles(stamps, points, prior)
    if rejected:
        print(f"warning: {rejected} profiles outside the trajectory span", file=sys.stderr)
    crossings = frontend.detect_crossings(
        prior, cfg.frontend_delta_r_star, cfg.frontend_min_time_separation
    )
    if not crossings:
        print("warning: no path crossings found", file=sys.stderr)
    report_doc = {**head, "outliers_injected": 0, "crossings": []}
    params = cfg.frontend_params()

    def close(c):
        """The crossing's ``(closure, icp)``, or the drop that it raised."""
        try:
            return frontend.make_loop_closure(prior, cloud, c, params)
        except frontend.CrossingDropped as exc:
            return exc

    measurements = []
    for c, result in zip(crossings, parallel.map_ordered(close, crossings)):
        if isinstance(result, frontend.CrossingDropped):
            outcome, message, icp = result.outcome, str(result), result.icp
            print(f"dropped crossing ({c.t1:.1f}s, {c.t2:.1f}s): {message}", file=sys.stderr)
        else:
            m, icp = result
            outcome, message = "closure", f"ICP converged after {icp.iterations} iterations"
            measurements.append(m)
        report_doc["crossings"].append({
            "t1": c.t1, "t2": c.t2, "outcome": outcome, "message": message,
            "icp": None if icp is None else asdict(icp),
        })
    if args.outliers:
        injected = sim.inject_outliers(measurements, args.outliers, seed=cfg.sim_seed + 2)
        closed = [e for e in report_doc["crossings"] if e["outcome"] == "closure"]
        for m, new, entry in zip(measurements, injected, closed):
            if new is not m:  # the entry keeps the ICP run of the closure replaced
                entry["outcome"] = "outlier_injected"
        measurements = injected
        report_doc["outliers_injected"] = args.outliers
    dataio.write_loop_closures(
        dataset / "loopclosures.csv", measurements, prior.times
    )
    dataio.write_manifest(dataset / "closeloops_report.json", report_doc)
    print(f"wrote {len(measurements)} loop closures "
          f"({len(crossings) - len(measurements)} dropped)")
    return EXIT_OK


def cmd_smooth(args, cfg):
    if args.no_robust:
        cfg.robust_enabled = False
    dataset = Path(args.dataset)
    lc_path = Path(args.loopclosures) if args.loopclosures else dataset / "loopclosures.csv"
    head = _report_head(cfg, prior=dataset / "prior.csv", loopclosures=lc_path)
    prior = dataio.read_trajectory(dataset / "prior.csv")
    # the closures that --loop-closures cuts get no node
    rows = dataio.read_loop_closures(lc_path)[: args.loop_closures]
    prior = dataio.insert_closure_nodes(lc_path, rows, prior)
    measurements = dataio.place_loop_closures(lc_path, rows, prior)
    graph = solver.build_graph(
        prior.times,
        prior.poses,
        measurements,
        cfg.wnoa_psd(),
        cfg.r_rel(),
        cfg.r_obs(),
        prior_cov=cfg.prior_cov(),
    )
    posterior, report = solver.solve(graph, cfg.solver_config())
    failed = report.stop_reason == "singular"
    out_traj = Trajectory(times=posterior.times, poses=posterior.poses)
    dataio.write_trajectory(dataset / "posterior.csv", out_traj)
    report_doc = {
        **head,
        "loop_closures": len(measurements),
        "robust": cfg.robust_enabled,
        "failed": failed,
        **asdict(report),
        "loop_weights": report.loop_weights.tolist(),
    }
    if failed:
        report_doc["failure"] = report.message
    dataio.write_manifest(dataset / "smooth_report.json", report_doc)
    if failed:
        print(f"solver failure: {report.message}", file=sys.stderr)
        return EXIT_SOLVER
    print(
        f"smoothed {len(prior)} nodes with {len(measurements)} loop closures "
        f"in {report.iterations} iterations ({report.message})"
    )
    return EXIT_OK


def cmd_evaluate(args, cfg):
    summary = {
        "estimate": str(args.estimate),
        **_report_head(cfg, estimate=args.estimate, truth=args.truth,
                       profiles=args.profiles, loopclosures=args.loopclosures),
        "omitted": [],
    }
    estimate = dataio.read_trajectory(args.estimate)

    closures = None
    if args.loopclosures:
        rows = dataio.read_loop_closures(args.loopclosures)
        closures = dataio.place_loop_closures(args.loopclosures, rows, estimate)

    tables = {}  # file name: (header, rows)
    if args.truth:
        truth = dataio.read_trajectory(args.truth)
        anchor = min(m.idx_l1 for m in closures) if closures else 0
        rel = metrics.relative_pose_errors(estimate, truth, anchor)
        tables["relative_errors.csv"] = (
            "t,att_x_deg,att_y_deg,att_z_deg,displacement_m",
            np.column_stack([rel.times, rel.attitude_deg, rel.displacement]),
        )
        summary["relative_displacement"] = metrics.summarize(rel.displacement, estimate)
        if "percent_distance_traveled" not in summary["relative_displacement"]:
            summary["omitted"].append(
                "percent_distance_traveled (the estimate has no planar path length)")
        summary["anchor_index"] = int(anchor)
    else:
        summary["omitted"].append("relative_errors (no truth provided)")

    if not args.profiles:
        summary["omitted"].append("point_disparity (no profiles provided)")
    elif not closures:
        # the cloud only feeds the closure crops
        summary["omitted"].append("point_disparity (no loop closures given)")
    else:
        stamps, points = dataio.read_profiles(args.profiles, summary["inputs"]["profiles"])
        cloud, _ = frontend.register_profiles(stamps, points, estimate)
        gate = cfg.eval_overlap_gate_cells * cfg.frontend_voxel_cell

        def disparity(m):
            """The closure's disparity samples, or None where a crop is empty."""
            center = estimate.positions[m.idx_l1][:2]
            t1, t2 = estimate.times[[m.idx_l1, m.idx_l2]]
            window = frontend.pass_window(t1, t2, cfg.frontend_submap_time_window)
            crops = [frontend.crop_world(cloud, center, cfg.frontend_delta_r_star, t, window)
                     for t in (t1, t2)]
            pair = [frontend.voxel_downsample(c.points, cfg.frontend_voxel_cell)
                    for c in crops if len(c)]
            return metrics.point_disparity(*pair, gate) if len(pair) == 2 else None

        samples = [s for s in parallel.map_ordered(disparity, closures) if s is not None]
        samples = np.concatenate(samples) if samples else np.zeros(0)
        if samples.size:
            tables["disparity.csv"] = ("disparity_m", samples)
            summary["point_disparity"] = metrics.summarize(samples)
        else:
            summary["omitted"].append("point_disparity (no overlap samples)")

    # created only now, so that a run that failed above leaves nothing behind
    out = Path(args.out) if args.out else Path(args.estimate).parent
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        dataio.write_rows(out / name, header, rows)
    dataio.write_manifest(out / "evaluation.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def nonnegative_int(raw):
    """A nonnegative integer flag value; argparse names the flag on error."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="lcsmooth",
        description="Fuse loop closures into a dead-reckoned trajectory estimate.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    common.add_argument("--seed", type=nonnegative_int)

    sp = sub.add_parser("simulate", parents=[common], help="generate a synthetic survey dataset")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("closeloops", parents=[common],
                        help="detect crossings and align submaps")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--outliers", type=nonnegative_int, default=0,
                    help="replace N closures with sampled outliers")
    sp.set_defaults(func=cmd_closeloops)

    sp = sub.add_parser("smooth", parents=[common],
                        help="batch-smooth the prior with loop closures")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--loopclosures")
    sp.add_argument("--loop-closures", type=nonnegative_int, default=None,
                    help="keep only the first K loop closures")
    sp.add_argument("--no-robust", action="store_true")
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("evaluate", parents=[common], help="trajectory and map-quality metrics")
    sp.add_argument("--estimate", required=True)
    sp.add_argument("--truth")
    sp.add_argument("--profiles")
    sp.add_argument("--loopclosures")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config, args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
