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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio, frontend, metrics, sim, solver
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


@dataclass
class PipelineConfig:
    """All tunables, addressable as flat ``section.key`` strings.

    Units follow the hyperparameter conventions of the estimation problem:
    PSDs in rad^2 s^-3 / m^2 s^-3, sigmas in the unit noted per field.
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
    robust_enabled: bool = True
    robust_sigma_phi_out: float = 1.0
    robust_sigma_rho_out: float = 1.0
    # solver
    solver_max_iterations: int = 100
    solver_step_tolerance: float = 1e-8
    solver_damping: float = 0.0
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
    sim_seed: int = 0
    sim_passes: int = 8
    sim_pass_length: float = 55.0
    sim_lane_spacing: float = 7.0
    sim_tie_margin: float = 10.0
    sim_turn_radius: float = 2.5
    sim_speed: float = 1.0
    sim_node_rate: float = 10.0
    sim_scan_rate: float = 20.0
    sim_scan_beams: int = 112
    sim_scan_fov: float = 60.0  # deg
    sim_scan_noise: float = 0.01
    sim_vel_bias_x: float = 7.5e-4
    sim_vel_bias_y: float = 7.5e-4
    sim_vel_psd: float = 2.5e-10
    sim_white_psd_yaw: float = 1e-10
    sim_white_psd_xy: float = 1e-8
    sim_heading_bias: float = 1e-6
    sim_lc_sigma_phi: float = 0.2  # deg
    sim_lc_sigma_rho: float = 0.02
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
        cfg.validate()
        return cfg

    def validate(self):
        for name in (
            "wnoa_q_omega", "wnoa_q_nu", "rel_sigma_phi", "rel_sigma_rho",
            "obs_sigma_rp", "obs_sigma_z", "prior_sigma_phi", "prior_sigma_rho",
            "prior_sigma_omega", "prior_sigma_nu", "robust_sigma_phi_out",
            "robust_sigma_rho_out", "solver_max_iterations", "solver_step_tolerance",
            "frontend_delta_r_star", "frontend_voxel_cell", "frontend_normal_neighbors",
            "frontend_icp_max_iterations", "frontend_icp_rot_tol", "frontend_icp_trans_tol",
            "frontend_min_inlier_fraction", "sim_passes", "sim_pass_length",
            "sim_lane_spacing", "sim_tie_margin", "sim_turn_radius", "sim_node_rate",
            "sim_speed", "sim_scan_rate", "sim_scan_beams",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"configuration key '{self._key(name)}' must be positive")
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

    def solver_config(self, robust=None):
        return solver.SolverConfig(
            max_iterations=self.solver_max_iterations,
            step_tolerance=self.solver_step_tolerance,
            robust_cost=self.robust_enabled if robust is None else robust,
            sigma_phi_out=np.deg2rad(self.robust_sigma_phi_out),
            sigma_rho_out=self.robust_sigma_rho_out,
            damping=self.solver_damping,
        )

    def icp_params(self):
        return frontend.IcpParams(
            voxel_cell=self.frontend_voxel_cell,
            normal_neighbors=self.frontend_normal_neighbors,
            variation_threshold=self.frontend_variation_threshold,
            max_iterations=self.frontend_icp_max_iterations,
            rot_tol=self.frontend_icp_rot_tol,
            trans_tol=self.frontend_icp_trans_tol,
            frmsd_lambda=self.frontend_frmsd_lambda,
            min_inlier_fraction=self.frontend_min_inlier_fraction,
        )

    def sim_config(self):
        cfg = sim.default_config(seed=self.sim_seed)
        cfg.passes = self.sim_passes
        cfg.pass_length = self.sim_pass_length
        cfg.lane_spacing = self.sim_lane_spacing
        cfg.tie_margin = self.sim_tie_margin
        cfg.turn_radius = self.sim_turn_radius
        cfg.speed = self.sim_speed
        cfg.node_rate = self.sim_node_rate
        cfg.scanner = sim.ScannerSpec(
            rate=self.sim_scan_rate,
            beams=self.sim_scan_beams,
            fov_deg=self.sim_scan_fov,
            noise_sigma=self.sim_scan_noise,
        )
        cfg.drift.vel_bias = np.array(
            [self.sim_vel_bias_x, self.sim_vel_bias_y, 0.0]
        )
        cfg.drift.vel_psd = np.array(
            [0.0, 0.0, 0.0, self.sim_vel_psd, self.sim_vel_psd, 0.0]
        )
        cfg.drift.psd = np.array(
            [0.0, 0.0, self.sim_white_psd_yaw]
            + [self.sim_white_psd_xy] * 2
            + [0.0]
        )
        cfg.drift.heading_bias = self.sim_heading_bias
        cfg.lc_sigma_phi = np.deg2rad(self.sim_lc_sigma_phi)
        cfg.lc_sigma_rho = self.sim_lc_sigma_rho
        return cfg


def load_config(path, seed):
    cfg = (
        PipelineConfig.from_flat(dataio.read_config(path))
        if path
        else PipelineConfig()
    )
    if seed is not None:
        cfg.sim_seed = seed
    return cfg


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args):
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scfg = cfg.sim_config()
    truth = sim.generate_truth(scfg)
    prior = sim.degrade(truth, scfg)
    profiles = sim.synth_scan(
        truth, scfg.terrain, scfg.scanner, seed=scfg.seed + 1
    )
    dataio.write_trajectory(out / "truth.csv", truth)
    dataio.write_trajectory(out / "prior.csv", prior)
    dataio.write_profiles(out / "profiles.csv", profiles)
    flat = cfg.to_flat()
    dataio.write_config(out / "config.cfg", flat)
    manifest = {
        "seed": scfg.seed,
        "config_hash": dataio.config_hash(flat),
        "nodes": len(truth),
        "profiles": len(profiles),
        "points": int(sum(len(p.points) for p in profiles)),
        "files": ["truth.csv", "prior.csv", "profiles.csv", "config.cfg"],
    }
    dataio.write_manifest(out / "manifest.json", manifest)
    print(f"wrote dataset to {out} ({len(truth)} nodes, {len(profiles)} profiles)")
    return EXIT_OK


def cmd_closeloops(args):
    cfg = load_config(args.config, args.seed)
    dataset = Path(args.dataset)
    prior = dataio.read_trajectory(dataset / "prior.csv")
    inputs = {"prior.csv": dataio.sha256_file(dataset / "prior.csv")}
    profiles = dataio.read_profiles(dataset / "profiles.csv", inputs)
    cloud, rejected = frontend.register_profiles(profiles, prior)
    if rejected:
        print(f"warning: {rejected} profiles outside the trajectory span", file=sys.stderr)
    crossings = frontend.detect_crossings(
        prior, cfg.frontend_delta_r_star, cfg.frontend_min_time_separation
    )
    report_doc = {
        "config_hash": dataio.config_hash(cfg.to_flat()),
        "inputs": inputs,
        "outliers_injected": 0,
        "crossings": [],
    }
    if not crossings:
        dataio.write_loop_closures(dataset / "loopclosures.csv", [], prior.times)
        dataio.write_manifest(dataset / "closeloops_report.json", report_doc)
        print("warning: no path crossings found; wrote empty loopclosures.csv",
              file=sys.stderr)
        return EXIT_OK
    measurements = []
    params = cfg.icp_params()
    for c in crossings:
        entry = {"t1": c.t1, "t2": c.t2}
        report_doc["crossings"].append(entry)
        try:
            m, icp = frontend.make_loop_closure(
                prior,
                cloud,
                c,
                params,
                delta_r_star=cfg.frontend_delta_r_star,
                time_window=cfg.frontend_submap_time_window,
                sigma_phi=np.deg2rad(cfg.frontend_lc_sigma_phi),
                sigma_rho=cfg.frontend_lc_sigma_rho,
                min_points=cfg.frontend_min_submap_points,
            )
        except (frontend.InsufficientOverlapError, frontend.AlignmentFailureError) as exc:
            overlap = isinstance(exc, frontend.InsufficientOverlapError)
            entry.update(
                outcome="insufficient_overlap" if overlap else "alignment_failure",
                message=str(exc), icp=None,
            )
            print(
                f"dropped crossing ({c.t1:.1f}s, {c.t2:.1f}s): {exc}", file=sys.stderr
            )
            continue
        stop = "converged" if icp.converged else "stopped at the iteration cap"
        entry.update(
            outcome="closure",
            message=f"ICP {stop} after {icp.iterations} iterations",
            icp={"iterations": icp.iterations, "converged": icp.converged,
                 "step_objectives": [list(step) for step in icp.step_objectives]},
        )
        measurements.append(m)
    if args.outliers:
        measurements = sim.inject_outliers(
            measurements, args.outliers, seed=cfg.sim_seed + 2
        )
        report_doc["outliers_injected"] = args.outliers
    dataio.write_loop_closures(
        dataset / "loopclosures.csv", measurements, prior.times
    )
    dataio.write_manifest(dataset / "closeloops_report.json", report_doc)
    print(f"wrote {len(measurements)} loop closures "
          f"({len(crossings) - len(measurements)} dropped)")
    return EXIT_OK


def cmd_smooth(args):
    cfg = load_config(args.config, args.seed)
    dataset = Path(args.dataset)
    prior = dataio.read_trajectory(dataset / "prior.csv")
    lc_path = Path(args.loopclosures) if args.loopclosures else dataset / "loopclosures.csv"
    # the closures that --loop-closures cuts get no node
    rows = dataio.read_loop_closures(lc_path)[: args.loop_closures]
    prior = dataio.insert_closure_nodes(lc_path, rows, prior)
    measurements = dataio.place_loop_closures(lc_path, rows, prior)
    inputs = {
        "prior.csv": dataio.sha256_file(dataset / "prior.csv"),
        lc_path.name: dataio.sha256_file(lc_path),
    }
    graph = solver.build_graph(
        prior.times,
        prior.poses,
        measurements,
        cfg.wnoa_psd(),
        cfg.r_rel(),
        cfg.r_obs(),
        prior_cov=cfg.prior_cov(),
    )
    scfg = cfg.solver_config(robust=False if args.no_robust else None)
    failure = None
    try:
        posterior, report = solver.solve(graph, scfg)
    except solver.SolverFailureError as exc:
        failure = str(exc)
        posterior, report = exc.graph, exc.report
    out_traj = Trajectory(times=posterior.times, poses=posterior.poses)
    dataio.write_trajectory(dataset / "posterior.csv", out_traj)
    report_doc = {
        "config_hash": dataio.config_hash(cfg.to_flat()),
        "inputs": inputs,
        "loop_closures": len(measurements),
        "robust": bool(scfg.robust_cost),
        "failed": failure is not None,
        "iterations": report.iterations,
        "converged": report.converged,
        "objective": report.objective,
        "objective_trace": report.objective_trace,
        "step_objectives": [list(step) for step in report.step_objectives],
        "damping_final": float(report.damping_final),
        "loop_weights": list(map(float, report.loop_weights)),
        "message": report.message,
        "stop_reason": report.stop_reason,
    }
    if failure is not None:
        report_doc["failure"] = failure
    dataio.write_manifest(dataset / "smooth_report.json", report_doc)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return EXIT_SOLVER
    print(
        f"smoothed {len(prior)} nodes with {len(measurements)} loop closures "
        f"in {report.iterations} iterations ({report.message})"
    )
    return EXIT_OK


def cmd_evaluate(args):
    cfg = load_config(args.config, args.seed)
    out = Path(args.out) if args.out else Path(args.estimate).parent
    out.mkdir(parents=True, exist_ok=True)
    estimate = dataio.read_trajectory(args.estimate)
    summary = {"estimate": str(args.estimate), "omitted": []}

    closures = None
    if args.loopclosures and Path(args.loopclosures).exists():
        rows = dataio.read_loop_closures(args.loopclosures)
        closures = dataio.place_loop_closures(args.loopclosures, rows, estimate)

    if args.truth:
        truth = dataio.read_trajectory(args.truth)
        anchor = min(m.idx_l1 for m in closures) if closures else 0
        rel = metrics.relative_pose_errors(estimate, truth, anchor)
        dataio.write_rows(
            out / "relative_errors.csv",
            "t,att_x_deg,att_y_deg,att_z_deg,displacement_m",
            np.column_stack([rel.times, rel.attitude_deg, rel.displacement]),
        )
        traj = Trajectory(times=estimate.times, poses=estimate.poses)
        summary["relative_displacement"] = metrics.summarize(rel.displacement, traj)
        summary["anchor_index"] = int(anchor)
    else:
        summary["omitted"].append("relative_errors (no truth provided)")

    if args.profiles:
        profiles = dataio.read_profiles(args.profiles)
        cloud, _ = frontend.register_profiles(profiles, estimate)
        if closures:
            gate = cfg.eval_overlap_gate_cells * cfg.frontend_voxel_cell
            window = cfg.frontend_submap_time_window
            samples = []
            for m in closures:
                center = estimate.positions[m.idx_l1][:2]
                pair = []
                for idx in (m.idx_l1, m.idx_l2):
                    crop = frontend.crop_world(
                        cloud,
                        center,
                        cfg.frontend_delta_r_star,
                        t_center=estimate.times[idx],
                        window=window,
                    )
                    if len(crop):
                        pair.append(
                            frontend.voxel_downsample(
                                crop.points, cfg.frontend_voxel_cell
                            )
                        )
                if len(pair) == 2:
                    samples.append(metrics.point_disparity(pair, gate))
            samples = np.concatenate(samples) if samples else np.zeros(0)
            if samples.size:
                dataio.write_rows(out / "disparity.csv", "disparity_m", samples)
                summary["point_disparity"] = metrics.summarize(samples)
            else:
                summary["omitted"].append("point_disparity (no overlap samples)")
        else:
            summary["omitted"].append("point_disparity (no loop closures given)")
    else:
        summary["omitted"].append("point_disparity (no profiles provided)")

    dataio.write_manifest(out / "evaluation.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="lcsmooth",
        description="Fuse loop closures into a dead-reckoned trajectory estimate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a synthetic survey dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("closeloops", help="detect crossings and align submaps")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--outliers", type=int, default=0,
                    help="replace N closures with sampled outliers")
    sp.set_defaults(func=cmd_closeloops)

    sp = sub.add_parser("smooth", help="batch-smooth the prior with loop closures")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--loopclosures")
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--loop-closures", type=int, default=None,
                    help="keep only the first K loop closures")
    sp.add_argument("--no-robust", action="store_true")
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("evaluate", help="trajectory and map-quality metrics")
    sp.add_argument("--estimate", required=True)
    sp.add_argument("--truth")
    sp.add_argument("--profiles")
    sp.add_argument("--loopclosures")
    sp.add_argument("--out")
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except solver.SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
