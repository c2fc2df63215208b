#!/usr/bin/env python3
"""lcsmooth benchmark: survey pipeline, dense-closure solve, outlier Monte Carlo.

Run from the root of a source checkout:

    python3 bench/run.py --workload survey --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of that checkout and driven only
through ``lcsmooth.cli.main`` and the public functions of ``sim``,
``frontend``, ``solver`` and ``metrics``.  Each run sets up its inputs from
``--seed``, repeats whole rounds of the workload until ``--seconds`` have
passed, checks every round's outputs (``checks.py``) and prints one JSON
object as its last line.  With ``--trace 0`` the object holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(``spans.py``), whose spans are also written to ``bench/_out/``.  The
workloads and metrics are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads: with two on a two-core machine any
# other load oversubscribes the cores, and a traced outlier_mc round was
# measured 3.5x slower that way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import scipy.linalg
import scipy.sparse  # imported before the program's import is timed
import scipy.spatial

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent

# set-ups timed before the rounds and again after them: one set-up lasts
# 0.05-0.3 s, too short to average out the machine's drift, which the two
# ends of a run sample apart
SETUP_REPEATS = 15

# survey: the simulator's standard eight-pass geometry (5,919 nodes), with
# the line scanner at 10 Hz instead of 20 Hz so a pipeline round fits the
# run budget; every other key keeps the CLI default
SURVEY_CONFIG = "sim.scan_rate = 10.0\n"

# dense_closures and outlier_mc smooth the standard seed-4 prior, the
# trajectory of the README quick start; --seed draws their closures
PRIOR_SEED = 4

# dense_closures: closure count and the rule for candidate node pairs
DENSE_L = 128
PAIR_RADIUS = 5.0
PAIR_MIN_DT = 30.0

# outlier_mc: outliers per trial, and the fixed (seed-independent) flip problem
OUTLIER_LEVELS = (1, 2, 3, 4, 5)
FLIP_PASSES = 2
FLIP_PASS_LENGTH = 20.0
FLIP_CLOSURES = 8


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import lcsmooth from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "lcsmooth" / "__init__.py").is_file():
        raise ProgramMissing(f"no lcsmooth package under {src}")
    sys.path.insert(0, str(src))
    import lcsmooth
    import lcsmooth.cli  # noqa: F401  (loads every module the workloads use)
    if Path(lcsmooth.__file__).resolve().parent != (src / "lcsmooth").resolve():
        raise ProgramMissing(f"lcsmooth imported from {lcsmooth.__file__}, not {src}")
    return lcsmooth


def time_import(lc, copy):
    """Seconds to execute every lcsmooth module again, as a separate package.

    The copy's relative imports resolve inside the copy, so the package the
    workloads use is left as it is; the copy is dropped afterwards.
    """
    name = f"_lcsmooth_copy{copy}"
    package = Path(lc.__file__).parent
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    t0 = time.perf_counter()
    try:
        spec.loader.exec_module(module)
        importlib.import_module(f"{name}.cli")
        return time.perf_counter() - t0
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


class Pair:
    """A node pair in the form ``sim.synth_loop_closures`` reads."""

    def __init__(self, idx1, idx2):
        self.idx1 = int(idx1)
        self.idx2 = int(idx2)


def candidate_pairs(truth):
    """Node pairs <= PAIR_RADIUS apart in plane and >= PAIR_MIN_DT apart in time."""
    pairs = scipy.spatial.cKDTree(truth.positions[:, :2]).query_pairs(
        PAIR_RADIUS, output_type="ndarray")
    pairs = np.sort(pairs, axis=1)
    pairs = pairs[truth.times[pairs[:, 1]] - truth.times[pairs[:, 0]] >= PAIR_MIN_DT]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class Problem:
    """One prior/truth pair smoothed with the CLI's default tunables."""

    def __init__(self, lc, truth, prior):
        cfg = lc.cli.PipelineConfig()
        self.lc = lc
        self.truth = truth
        self.prior = prior
        self.psd = cfg.wnoa_psd()
        self.r_rel = cfg.r_rel()
        self.r_obs = cfg.r_obs()
        self.prior_cov = cfg.prior_cov()
        self.config = cfg.solver_config()
        self.sigma_rho = cfg.sim_lc_sigma_rho  # of the synthetic closures

    def solve(self, measurements):
        """(posterior graph, report) of build_graph + solve."""
        graph = self.lc.solver.build_graph(
            self.prior.times, self.prior.poses, measurements,
            self.psd, self.r_rel, self.r_obs, prior_cov=self.prior_cov)
        return self.lc.solver.solve(graph, self.config)

    def max_error(self, post, measurements):
        """Largest anchored planar error, through the program's metrics module."""
        anchor = min(m.idx_l1 for m in measurements)
        est = self.lc.Trajectory(times=post.times, poses=post.poses)
        return float(self.lc.metrics.relative_pose_errors(est, self.truth, anchor)
                     .displacement.max())

    def check(self, post, report, measurements, outlier_mask, label="", inlier_min=0.5):
        fails = []
        if not report.converged:
            fails.append(f"{label}solve did not converge ({report.message})")
        anchor = min(m.idx_l1 for m in measurements)
        post_err = checks.anchored_planar_error(post.poses, self.truth.poses, anchor)
        prior_err = checks.anchored_planar_error(self.prior.poses, self.truth.poses, anchor)
        fails += checks.check_posterior_error(post_err, prior_err, self.sigma_rho, label)
        inliers = [m for m, out in zip(measurements, outlier_mask) if not out]
        fails += checks.check_closure_fit(
            post.poses, self.truth.poses, [m.idx_l1 for m in inliers],
            [m.idx_l2 for m in inliers], self.sigma_rho, label)
        fails += checks.check_weights(report.loop_weights, outlier_mask, inlier_min, label)
        return fails


# ---------------------------------------------------------------------------
# Workloads.  setup() builds the inputs from the seed (it is repeated and its
# median reported as setup_s); round(r, tracer) runs one round and returns
# its timings, outputs' check failures and operation counts.


class Survey:
    """The README quick start through ``lcsmooth.cli.main``, in a fresh directory."""

    def __init__(self, lc, seed, workdir):
        self.lc = lc
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.config = self.workdir / "survey.cfg"
        self.config.write_text(SURVEY_CONFIG)

    def _cli(self, tracer, name, *argv):
        """(seconds, error message or None) of one lcsmooth command."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = self.lc.cli.main([name, *argv, "--config", str(self.config)])
        elapsed = time.perf_counter() - t0
        return elapsed, (f"lcsmooth {name} exited {code}: {err.getvalue().strip()}"
                         if code else None)

    def round(self, r, tracer):
        """The four commands are the round's operations.  One that exits
        non-zero fails with every command after it; an unconverged smooth
        fails too, and is also a check failure."""
        run = self.workdir / f"round{r}"
        commands = {
            "simulate": ("--out", str(run), "--seed", str(self.seed)),
            "closeloops": ("--dataset", str(run)),
            "smooth": ("--dataset", str(run)),
            "evaluate": ("--estimate", str(run / "posterior.csv"),
                         "--truth", str(run / "truth.csv"),
                         "--profiles", str(run / "profiles.csv"),
                         "--loopclosures", str(run / "loopclosures.csv"),
                         "--out", str(run / "eval")),
        }
        times = {}
        for name, argv in commands.items():
            times[name], error = self._cli(tracer, name, *argv)
            if error:
                break
        if error:
            result = {"fails": [], "max_rel_err_m": float("nan"), "info": {"error": error},
                      "failed": len(commands) - len(times) + 1}
        else:
            with tracer.paused():
                result = self._check(run)
            smooth = json.loads((run / "smooth_report.json").read_text())
            result["failed"] = int(not smooth["converged"])
            if result["failed"]:
                result["fails"].append(f"smooth did not converge ({smooth['message']})")
        shutil.rmtree(run, ignore_errors=True)
        result.update(pipeline_s=sum(times.values()), attempted=len(commands))
        result["info"].update({f"{k}_s": v for k, v in times.items()})
        return result

    def _check(self, run):
        times, truth = checks.read_trajectory_csv(run / "truth.csv")
        _, prior = checks.read_trajectory_csv(run / "prior.csv")
        post_t, post = checks.read_trajectory_csv(run / "posterior.csv")
        t1, t2, closures, var = checks.read_loop_closures_csv(run / "loopclosures.csv")
        if len(post_t) != len(times) or np.abs(post_t - times).max() > 1e-9:
            return {"fails": ["posterior timestamps differ from the truth's"],
                    "max_rel_err_m": float("nan"), "info": {}}
        if len(t1) == 0:
            return {"fails": ["the front end produced no loop closures"],
                    "max_rel_err_m": float("nan"), "info": {}}
        stamps, points = checks.read_profiles_csv(run / "profiles.csv")
        # the configuration the commands ran with
        cfg = self.lc.cli.load_config(self.config, self.seed)
        sim_cfg = cfg.sim_config()
        sigma_rho = cfg.frontend_lc_sigma_rho
        fails = checks.check_profiles_on_terrain(
            stamps, points, times, truth, sim_cfg.terrain.bumps, sim_cfg.terrain.base_depth,
            sim_cfg.scanner.noise_sigma)
        i1 = checks.node_index(times, t1)
        i2 = checks.node_index(times, t2)
        fails += checks.check_closures_vs_truth(i1, i2, closures, var, truth)
        anchor = int(i1.min())
        post_err = checks.anchored_planar_error(post, truth, anchor)
        prior_err = checks.anchored_planar_error(prior, truth, anchor)
        fails += checks.check_posterior_error(post_err, prior_err, sigma_rho)
        fails += checks.check_closure_nodes(post_err, np.concatenate([i1, i2]), sigma_rho)
        fails += checks.check_closure_fit(post, truth, i1, i2, sigma_rho)
        p50 = {name: checks.median_disparity(stamps, points, times, poses, i1, i2)
               for name, poses in (("post", post), ("prior", prior), ("truth", truth))}
        fails += checks.check_disparity(p50["post"], p50["prior"], p50["truth"])
        with open(run / "eval" / "evaluation.json") as f:
            reported = json.load(f)["point_disparity"]["quantiles"]["0.5"]
        return {
            "fails": fails,
            "max_rel_err_m": float(post_err.max()),
            "info": {
                "closures": int(len(t1)),
                "disparity_p50_cm": 100.0 * reported,
                **{f"checked_{k}_disparity_p50_cm": 100.0 * v for k, v in p50.items()},
            },
        }


class DenseClosures:
    """One large smoothing problem with DENSE_L truth-consistent closures."""

    def __init__(self, lc, seed, workdir):
        self.lc = lc
        self.seed = seed

    def setup(self):
        sim = self.lc.sim
        cfg = sim.default_config(seed=PRIOR_SEED)
        truth = sim.generate_truth(cfg)
        prior = sim.degrade(truth, cfg)
        pairs = candidate_pairs(truth)
        pick = np.random.default_rng(self.seed).choice(len(pairs), DENSE_L, replace=False)
        self.measurements = sim.synth_loop_closures(
            truth, [Pair(*p) for p in pairs[np.sort(pick)]], cfg.lc_sigma_phi, cfg.lc_sigma_rho,
            seed=self.seed + 3)
        self.problem = Problem(self.lc, truth, prior)

    def round(self, r, tracer):
        t0 = time.perf_counter()
        post, report = self.problem.solve(self.measurements)
        err = self.problem.max_error(post, self.measurements)
        pipeline = time.perf_counter() - t0
        with tracer.paused():
            # among DENSE_L closures some residuals reach 4 sigma, where the
            # robust weight falls near 0.5; none may be rejected outright
            fails = self.problem.check(post, report, self.measurements,
                                       [False] * len(self.measurements), inlier_min=0.01)
        return {"fails": fails, "pipeline_s": pipeline, "max_rel_err_m": err,
                "attempted": 1, "failed": int(not report.converged),
                "info": {"iterations": report.iterations}}


class OutlierMc:
    """Robust solves with 1 to 5 injected outliers, plus eight flip trials."""

    def __init__(self, lc, seed, workdir):
        self.lc = lc
        self.seed = seed

    def setup(self):
        sim = self.lc.sim
        cfg = sim.default_config(seed=PRIOR_SEED)
        truth = sim.generate_truth(cfg)
        prior = sim.degrade(truth, cfg)
        crossings = self.lc.frontend.detect_crossings(prior, PAIR_RADIUS, PAIR_MIN_DT)
        self.measurements = sim.synth_loop_closures(
            truth, crossings, cfg.lc_sigma_phi, cfg.lc_sigma_rho, seed=self.seed + 3)
        self.problem = Problem(self.lc, truth, prior)
        self.flip_problem, self.flip_trials = self._flip_trials()

    def _flip_trials(self):
        """A fixed small survey, independent of --seed, and its flip trials.

        Each trial replaces one of FLIP_CLOSURES truth-consistent closures by
        the prior's own relative pose between the same nodes, turned 180
        degrees in yaw: a flipped registration the robust cost must reject.
        """
        sim = self.lc.sim
        cfg = sim.default_config(seed=PRIOR_SEED)
        cfg.passes = FLIP_PASSES
        cfg.pass_length = FLIP_PASS_LENGTH
        truth = sim.generate_truth(cfg)
        prior = sim.degrade(truth, cfg)
        pairs = candidate_pairs(truth)
        pick = pairs[np.linspace(0, len(pairs) - 1, FLIP_CLOSURES).astype(int)]
        base = sim.synth_loop_closures(
            truth, [Pair(*p) for p in pick], cfg.lc_sigma_phi, cfg.lc_sigma_rho, seed=PRIOR_SEED + 3)
        yaw_pi = np.diag([-1.0, -1.0, 1.0, 1.0])
        trials = []
        for j, m in enumerate(base):
            flipped = checks.inv(prior.poses[m.idx_l1]) @ prior.poses[m.idx_l2] @ yaw_pi
            ms = list(base)
            ms[j] = self.lc.LoopClosureMeasurement(m.idx_l1, m.idx_l2, flipped, m.cov)
            trials.append((j, ms))
        return Problem(self.lc, truth, prior), trials

    def round(self, r, tracer):
        solved = []
        t0 = time.perf_counter()
        for level in OUTLIER_LEVELS:
            corrupted = self.lc.sim.inject_outliers(
                self.measurements, level, seed=1000 * level + r)
            post, report = self.problem.solve(corrupted)
            solved.append((level, corrupted, post, report,
                           self.problem.max_error(post, corrupted)))
        pipeline = time.perf_counter() - t0
        with tracer.paused():
            fails = []
            for level, corrupted, post, report, _ in solved:
                mask = [c is not m for c, m in zip(corrupted, self.measurements)]
                fails += self.problem.check(
                    post, report, corrupted, mask, f"{level} outliers, trial {r}: ")
            flips = [self._flip(j, ms) for j, ms in self.flip_trials]
        # an unconverged solve fails its operation and its check
        failed = (sum(not s[3].converged for s in solved)
                  + sum(outcome != "rejected" for outcome in flips))
        return {"fails": fails, "pipeline_s": pipeline,
                "max_rel_err_m": statistics.median(s[-1] for s in solved),
                "attempted": len(solved) + len(flips), "failed": failed,
                "info": {"iterations": sum(s[3].iterations for s in solved), "flips": flips}}

    def _flip(self, j, measurements):
        """Outcome of one flip trial; anything but "rejected" is a failed operation.

        The flip trials stay out of the timings and the trace.
        """
        try:
            _, report = self.flip_problem.solve(measurements)
        except Exception as exc:  # the solve's failure is this operation's outcome
            return f"raised {type(exc).__name__}"
        if not report.converged:
            return f"unconverged, weight {report.loop_weights[j]:.2f}"
        if report.loop_weights[j] >= 0.01:
            return f"kept, weight {report.loop_weights[j]:.2f}"
        return "rejected"


WORKLOADS = {"survey": Survey, "dense_closures": DenseClosures, "outlier_mc": OutlierMc}


# ---------------------------------------------------------------------------
# Tracing: the public functions wrapped, each under the name its caller uses


SPAN_METRICS = (
    "sim.synth_scan", "sim.truth_degrade",
    "dataio.write_profiles", "dataio.read_profiles", "dataio.trajectory_io",
    "frontend.register_profiles", "frontend.detect_crossings", "frontend.extract_submap",
    "frontend.make_loop_closure", "frontend.preprocess_submap", "frontend.icp_align",
    "frontend.crop_world", "frontend.voxel_downsample",
    "solver.build_graph", "solver.solve", "solver.process_weight",
    "solver.cholesky_banded", "solver.cho_solve_banded", "solver.update_states",
    "metrics.point_disparity", "metrics.relative_pose_errors",
    "cli.simulate", "cli.closeloops", "cli.smooth", "cli.evaluate",
)
COUNT_METRICS = (
    "sim.depth_evals", "sim.points", "frontend.crossings", "frontend.closures",
    "frontend.icp_iterations", "solver.iterations", "solver.lm_trials",
    "solver.rhs_columns", "metrics.disparity_samples",
)


def install_tracing(tracer, lc):
    sim, frontend, solver, metrics, dataio = (
        lc.sim, lc.frontend, lc.solver, lc.metrics, lc.dataio)

    def counting(name, amount):
        return lambda t, result, args, kwargs: t.count(name, amount(result, args))

    tracer.counter(sim.TerrainSpec, "depth", "sim.depth_evals")
    tracer.counter(sim.TerrainSpec, "depth_grad", "sim.depth_evals")
    tracer.wrap(sim, "synth_scan", "sim.synth_scan", counting(
        "sim.points", lambda res, a: sum(len(p.points) for p in res)))
    tracer.wrap(sim, "generate_truth", "sim.truth_degrade")
    tracer.wrap(sim, "degrade", "sim.truth_degrade")
    tracer.wrap(dataio, "write_profiles", "dataio.write_profiles")
    tracer.wrap(dataio, "read_profiles", "dataio.read_profiles")
    tracer.wrap(dataio, "write_trajectory", "dataio.trajectory_io")
    tracer.wrap(dataio, "read_trajectory", "dataio.trajectory_io")
    tracer.wrap(frontend, "register_profiles", "frontend.register_profiles")
    tracer.wrap(frontend, "detect_crossings", "frontend.detect_crossings", counting(
        "frontend.crossings", lambda res, a: len(res)))
    tracer.wrap(frontend, "make_loop_closure", "frontend.make_loop_closure", counting(
        "frontend.closures", lambda res, a: 1))
    tracer.wrap(frontend, "extract_submap", "frontend.extract_submap")
    tracer.wrap(frontend, "preprocess_submap", "frontend.preprocess_submap")
    tracer.wrap(frontend, "icp_align", "frontend.icp_align", counting(
        "frontend.icp_iterations", lambda res, a: res[1].iterations))
    tracer.wrap(frontend, "crop_world", "frontend.crop_world")
    tracer.wrap(frontend, "voxel_downsample", "frontend.voxel_downsample")
    tracer.wrap(solver, "build_graph", "solver.build_graph")
    tracer.wrap(solver, "solve", "solver.solve", counting(
        "solver.iterations", lambda res, a: res[1].iterations))
    tracer.wrap(solver, "process_weight", "solver.process_weight")
    tracer.wrap(solver, "update_states", "solver.update_states", counting(
        "solver.lm_trials", lambda res, a: 1))
    tracer.wrap(scipy.linalg, "cholesky_banded", "solver.cholesky_banded")
    tracer.wrap(scipy.linalg, "cho_solve_banded", "solver.cho_solve_banded", counting(
        "solver.rhs_columns", lambda res, a: a[1].shape[1] if np.ndim(a[1]) == 2 else 1))
    tracer.wrap(metrics, "point_disparity", "metrics.point_disparity", counting(
        "metrics.disparity_samples", lambda res, a: len(res)))
    tracer.wrap(metrics, "relative_pose_errors", "metrics.relative_pose_errors")


def per_layer_metrics(tracer, rounds):
    """Layer self times and counts: the traced setup once plus the mean round.

    ``bench.self_s`` is the benchmark's own time in a round; ``trace.round_s``
    sums it with the round's layer self times, which is the traced
    counterpart of ``pipeline_s`` (checks and flip trials run untraced).
    """
    layer_s = defaultdict(float)
    round_s = 0.0
    for (root, name), seconds in tracer.self_times().items():
        if name == "bench.untraced":
            continue
        share = seconds / rounds if root == "bench.round" else seconds
        layer_s[name] += share
        if root == "bench.round":
            round_s += share
    out = {f"{name}_s": (layer_s[name], "s") for name in SPAN_METRICS}
    out["solver.solve_self_s"] = out.pop("solver.solve_s")
    out["bench.self_s"] = (layer_s["bench.round"], "s")
    out["trace.round_s"] = (round_s, "s")
    # build_graph + solve per solve, pairing the spans in call order
    solves = [a + b for a, b in zip(tracer.durations("solver.build_graph"),
                                    tracer.durations("solver.solve"))]
    out["solve_s"] = (statistics.median(solves) if solves else 0.0, "s")
    counts = {name: tracer.counts.get(name, 0.0) / rounds for name in COUNT_METRICS}
    counts["solver.lm_rejected"] = counts["solver.lm_trials"] - counts["solver.iterations"]
    out.update({name: (v, "count") for name, v in counts.items()})
    crossings = counts["frontend.crossings"]
    out["frontend.closure_yield"] = (
        counts["frontend.closures"] / crossings if crossings else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------


def run(args):
    lc = import_program()
    workdir = BENCH / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](lc, args.seed, workdir)
    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        install_tracing(tracer, lc)
    try:
        # setup_s: executing lcsmooth's modules plus building the inputs; the
        # traced run reports no setup_s and sets up once, under its wrappers
        setups = []

        def time_setups():
            for _ in range(SETUP_REPEATS if not args.trace else 0):
                gc.collect()
                seconds = time_import(lc, len(setups))
                t0 = time.perf_counter()
                workload.setup()
                setups.append(seconds + time.perf_counter() - t0)

        time_setups()
        if args.trace:
            with tracer.span("bench.setup"):
                workload.setup()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            with tracer.span("bench.round"):
                rounds.append(workload.round(len(rounds), tracer))
        time_setups()
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return setups, rounds, tracer


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        setups, rounds, tracer = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fails = [f for r in rounds for f in r["fails"]]
    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    for i, r in enumerate(rounds):
        print(f"round {i}: {json.dumps(r['info'])}")
    if setups:
        print(f"setups (s): {json.dumps([round(t, 5) for t in setups])}")
    errs = [r["max_rel_err_m"] for r in rounds if np.isfinite(r["max_rel_err_m"])]
    quality = {
        "max_rel_err_m": (statistics.median(errs) if errs else 0.0, "m"),
        "disparity_p50_cm": (statistics.median(
            r["info"].get("disparity_p50_cm", 0.0) for r in rounds), "cm"),
    }
    if args.trace:
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        metrics = {**per_layer_metrics(tracer, len(rounds)), **quality}
    else:
        for name, (value, unit) in quality.items():
            print(f"{name:32s} {value:14.6g} {unit}  (per-layer)")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pipeline_s": (statistics.median(r["pipeline_s"] for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
