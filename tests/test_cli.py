import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsmooth import cli, dataio, frontend, lie, sim, solver
from lcsmooth.factors import LoopClosureMeasurement
from lcsmooth.trajectory import Trajectory

from conftest import flipped_closure_line, profile_rows


SMALL_SIM = {
    "sim.passes": "2",
    "sim.pass_length": "14.0",
    "sim.tie_margin": "8.0",
    "sim.scan_beams": "24",
    "sim.seed": "4",
    # crossing events in this tiny survey are closer together than in the
    # standard one, so shrink the event-suppression window accordingly
    "frontend.min_time_separation": "20.0",
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the README's two exceptions to "every number must be positive", the keys
# that may be 0 and the keys of either sign, written out here so that the
# README and cli._NONNEGATIVE / cli._SIGNED cannot drift apart unseen
NONNEGATIVE_KEYS = {
    "solver.damping", "sim.seed", "sim.scan_noise", "sim.vel_psd", "sim.white_psd_yaw",
    "sim.white_psd_xy", "frontend.frmsd_lambda", "frontend.variation_threshold",
}
SIGNED_KEYS = {"sim.vel_bias_x", "sim.vel_bias_y", "sim.heading_bias"}
NUMERIC_KEYS = [
    key for key, raw in cli.PipelineConfig().to_flat().items() if raw not in ("true", "false")
]


def write_cfg(tmp_path, extra=None, name="pipeline.cfg"):
    values = dict(SMALL_SIM)
    if extra:
        values.update(extra)
    path = tmp_path / name
    dataio.write_config(path, values)
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    cfg = write_cfg(root)
    assert cli.main(["simulate", "--out", str(root / "d"), "--config", cfg]) == 0
    assert cli.main(["closeloops", "--dataset", str(root / "d"), "--config", cfg]) == 0
    return root / "d", cfg


def smooth_flipped_line(directory, offset=0.0):
    """`lcsmooth smooth` on ``flipped_closure_line`` with every node and
    closure time shifted by ``offset`` seconds: (posterior poses, loop
    weights, iterations).

    The consistent closure is perturbed by about one standard deviation, so
    that the posterior moves away from the prior.
    """
    times, poses, closures = flipped_closure_line(orthonormal=True)
    good = closures[0]
    nudge = lie.se3_exp(np.array([0.002, -0.001, 0.003, 0.02, -0.01, 0.015]))
    closures[0] = LoopClosureMeasurement(good.idx_l1, good.idx_l2, good.xi_meas @ nudge, good.cov)
    times = times + offset
    dataio.write_trajectory(directory / "prior.csv", Trajectory(times, poses))
    dataio.write_loop_closures(directory / "loopclosures.csv", closures, times)
    assert cli.main(["smooth", "--dataset", str(directory)]) == cli.EXIT_OK
    report = json.loads((directory / "smooth_report.json").read_text())
    posterior = dataio.read_trajectory(directory / "posterior.csv")
    return posterior.poses, np.array(report["loop_weights"]), report["iterations"]


@pytest.fixture(scope="module")
def flipped_line_posterior(tmp_path_factory):
    return smooth_flipped_line(tmp_path_factory.mktemp("flipped"))


def write_flipped_line(directory):
    """``flipped_closure_line`` as ``prior.csv`` and ``loopclosures.csv``:
    50 nodes 0.1 s apart, closures at (0.5 s, 4.5 s) and (1.0 s, 4.0 s)."""
    times, poses, closures = flipped_closure_line(orthonormal=True)
    dataio.write_trajectory(directory / "prior.csv", Trajectory(times, poses))
    dataio.write_loop_closures(directory / "loopclosures.csv", closures, times)


def write_straight_line(directory):
    """``directory`` holding a 20 m straight-line prior, which crosses
    itself nowhere, and its laser profiles."""
    directory.mkdir()
    n = 200
    poses = np.tile(np.eye(4), (n, 1, 1))
    poses[:, 0, 3] = np.arange(n) * 0.1
    traj = Trajectory(times=np.arange(n) * 0.1, poses=poses)
    dataio.write_trajectory(directory / "prior.csv", traj)
    profiles = sim.synth_scan(traj, sim.TerrainSpec(), sim.ScannerSpec(beams=4), seed=0)
    dataio.write_profiles(directory / "profiles.csv", *profile_rows(profiles))
    return directory


NOT_A_ROTATION = ("holds a rotation block that is not a rotation "
                  "(max|C^T C - I| above 1e-6, or det C not positive)")
NOT_POSITIVE = "holds a variance that is not positive"
# values of a loop-closure row that no closure can hold: {column: text}, and
# the problem that names them
BAD_CLOSURE_VALUES = [
    (dict.fromkeys(range(2, 11), "0"), NOT_A_ROTATION),
    (dict(zip(range(2, 11), "2 0 0 0 2 0 0 0 2".split())), NOT_A_ROTATION),
    (dict(zip(range(2, 11), "1 0 0 0 1 0 0 0 -1".split())), NOT_A_ROTATION),
    ({14: "0"}, NOT_POSITIVE),
    ({19: "-1e-4"}, NOT_POSITIVE),
]
BAD_CLOSURE_IDS = ["zero_rotation", "rotation_x2", "reflection", "zero_variance",
                   "negative_variance"]


def set_fields(path, row, values):
    """Overwrite fields of data row ``row`` of the CSV ``path``: {column: text},
    where text None drops the column and "previous" repeats the row before's."""
    lines = Path(path).read_text().splitlines()
    fields, before = lines[row].split(","), lines[row - 1].split(",")
    for column, text in values.items():
        fields[column] = before[column] if text == "previous" else text
    lines[row] = ",".join(f for f in fields if f is not None)
    Path(path).write_text("\n".join(lines) + "\n")


def prune_prior(d, row):
    """Drop the nodes of ``d``/prior.csv within 0.25 s of the t_l1 of data row
    ``row`` of its loopclosures.csv; the pruned trajectory and that t_l1."""
    prior = dataio.read_trajectory(d / "prior.csv")
    t1 = dataio.read_loop_closures(d / "loopclosures.csv")[row - 1, 0]
    keep = np.abs(prior.times - t1) > 0.25
    pruned = Trajectory(times=prior.times[keep], poses=prior.poses[keep])
    dataio.write_trajectory(d / "prior.csv", pruned)
    return pruned, t1


def assert_same_fields(a, b, name):
    """``a`` and ``b`` equal field by field, nested dataclasses and arrays too."""
    if is_dataclass(a):
        for f in fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}")
    else:
        assert np.array_equal(a, b), name


# the benchmark builds its in-memory workloads from sim.default_config and
# solver.SolverConfig, and the CLI from PipelineConfig: the copies must agree
@pytest.mark.parametrize("seed", [0, 4])
def test_pipeline_defaults_match_library_defaults(seed):
    assert_same_fields(cli.PipelineConfig(sim_seed=seed).sim_config(), sim.default_config(seed),
                       "SimConfig")
    assert cli.PipelineConfig().solver_config() == solver.SolverConfig()


def test_pipeline_defaults_pinned():
    # the CLI takes its solver and simulator defaults from the library: a
    # change there changes the CLI's defaults, and this hash
    assert dataio.config_hash(cli.PipelineConfig().to_flat()) == (
        "be4ae6e08bb6ba5f8c072f0f1f6ccf99bd8daf43b6b3a03b847edf8255ce11c7"
    )


def test_terrain_follows_configured_lanes():
    cfg = cli.PipelineConfig(sim_lane_spacing=10.0).sim_config()
    lanes = np.arange(cfg.passes) * 10.0
    rows = np.array(cfg.terrain.bumps)[:-2, 1].reshape(cfg.passes, 4)
    # each lane's row of feature bumps is the first lane's row, moved to it
    assert np.allclose(rows - rows[0], lanes[:, None], rtol=0.0, atol=1e-12)
    assert len(cli.PipelineConfig(sim_passes=2).sim_config().terrain.bumps) == 4 * 2 + 2


class TestSimulate:
    def test_writes_dataset_and_manifest(self, dataset):
        d, _ = dataset
        for name in ("truth.csv", "prior.csv", "profiles.csv", "manifest.json",
                     "config.cfg"):
            assert (d / name).exists()
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["nodes"] > 500

    def test_deterministic_rerun(self, dataset, tmp_path):
        d, cfg = dataset
        assert cli.main(["simulate", "--out", str(tmp_path / "d2"), "--config", cfg]) == 0
        m1 = json.loads((d / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert (d / "truth.csv").read_bytes() == (tmp_path / "d2" / "truth.csv").read_bytes()
        assert (d / "prior.csv").read_bytes() == (tmp_path / "d2" / "prior.csv").read_bytes()

    def test_zero_noise_prior_equals_truth(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "sim.vel_bias_x": "0.0",
                "sim.vel_bias_y": "0.0",
                "sim.vel_psd": "0.0",
                "sim.white_psd_yaw": "0.0",
                "sim.white_psd_xy": "0.0",
                "sim.heading_bias": "0.0",
            },
        )
        assert cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg]) == 0
        truth = (tmp_path / "d" / "truth.csv").read_bytes()
        prior = (tmp_path / "d" / "prior.csv").read_bytes()
        assert truth == prior

    def test_invalid_config_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"wnoa.q_omega": "-1.0"})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert "wnoa.q_omega" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("robust.enabled", "ture"),
            ("robust.enabled", "flase"),
            ("solver.step_tolerance", "nan"),
            ("frontend.delta_r_star", "inf"),
            ("sim.seed", "4.0"),
        ],
    )
    def test_unreadable_value_names_key(self, tmp_path, capsys, key, raw):
        cfg = write_cfg(tmp_path, {key: raw})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("raw", ["TRUE", "1", "Yes", "on", "False", "0", "NO", "off"])
    def test_boolean_spellings(self, raw):
        cfg = cli.PipelineConfig.from_flat({"robust.enabled": raw})
        assert cfg.robust_enabled is (raw.lower() in ("true", "1", "yes", "on"))

    # 0 for each key that must be positive, -1 for each that may be 0
    @pytest.mark.parametrize(
        "key, raw",
        [(key, "0") for key in NUMERIC_KEYS if key not in NONNEGATIVE_KEYS | SIGNED_KEYS]
        + [(key, "-1") for key in sorted(NONNEGATIVE_KEYS)]
        + [("frontend.min_inlier_fraction", "1.5")],
    )
    def test_out_of_range_value_names_key(self, tmp_path, capsys, key, raw):
        cfg = write_cfg(tmp_path, {key: raw})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command, paths", [
        ("simulate", ["--out", "d"]),
        ("closeloops", ["--dataset", "d"]),
        ("smooth", ["--dataset", "d"]),
        ("evaluate", ["--estimate", "d/posterior.csv", "--out", "d"]),
    ])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, command, paths):
        argv = [command] + [p if p.startswith("--") else str(tmp_path / p) for p in paths]
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--seed", "-1"])
        assert exit_.value.code == cli.EXIT_VALIDATION
        assert "argument --seed: must not be negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_range_exceptions_accepted(self, tmp_path):
        # a misspelt key in either set would be rejected as unknown
        values = {key: "0" for key in NONNEGATIVE_KEYS} | {key: "-1" for key in SIGNED_KEYS}
        cli.load_config(write_cfg(tmp_path, values), None)

    def test_failed_simulation_leaves_no_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"sim.turn_radius": "10"})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert "turn radius too large for waypoint spacing" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_seed_flag_overrides_negative_config_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sim.seed": "-3"})
        assert cli.load_config(cfg, 4).sim_seed == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"wnoa.bogus": "1.0"})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert "wnoa.bogus" in capsys.readouterr().err


class TestCloseloops:
    def test_expected_crossings_closed(self, dataset):
        d, _ = dataset
        rows = dataio.read_loop_closures(d / "loopclosures.csv")
        assert len(rows) == 2  # one crossing per pass in the small survey

    def test_straight_line_gives_empty(self, tmp_path, capsys):
        d = write_straight_line(tmp_path / "line")
        assert cli.main(["closeloops", "--dataset", str(d)]) == 0
        assert "no path crossings" in capsys.readouterr().err
        assert dataio.read_loop_closures(d / "loopclosures.csv").shape == (0, 20)
        report = json.loads((d / "closeloops_report.json").read_text())
        assert report["crossings"] == []
        assert set(report["inputs"]) == {"prior", "profiles"}

    def test_one_node_prior(self, tmp_path, capsys):
        # the profiles at the one node's time register at its pose
        d = write_straight_line(tmp_path / "line")
        prior = dataio.read_trajectory(d / "prior.csv")
        dataio.write_trajectory(d / "prior.csv", Trajectory(prior.times[:1], prior.poses[:1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["closeloops", "--dataset", str(d)]) == 0
        err = capsys.readouterr().err
        assert "no path crossings" in err and "outside the trajectory span" in err
        assert dataio.read_loop_closures(d / "loopclosures.csv").shape == (0, 20)

    def test_negative_outliers_rejected(self, dataset, capsys):
        d, cfg = dataset
        with pytest.raises(SystemExit) as exit_:
            cli.main(["closeloops", "--dataset", str(d), "--config", cfg, "--outliers", "-1"])
        assert exit_.value.code == cli.EXIT_VALIDATION
        assert "argument --outliers: must not be negative, got -1" in capsys.readouterr().err

    def test_outliers_beyond_no_crossings_rejected(self, tmp_path, capsys):
        # as with fewer closures than --outliers asks to replace: nothing to
        # replace is an error, not a silent no-op
        d = write_straight_line(tmp_path / "line")
        code = cli.main(["closeloops", "--dataset", str(d), "--outliers", "1"])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "no path crossings" in err
        assert "cannot replace 1 of 0 loop closures" in err
        assert not (d / "loopclosures.csv").exists()

    def test_profile_order_in_file_does_not_matter(self, dataset, tmp_path):
        d, cfg = dataset
        import shutil

        d2 = tmp_path / "d_swapped"
        shutil.copytree(d, d2)
        t_l1 = np.loadtxt(d / "loopclosures.csv", delimiter=",", skiprows=1, ndmin=2)[0, 0]
        stamps, points = dataio.read_profiles(d / "profiles.csv", sha256(d / "profiles.csv"))
        starts = np.flatnonzero(np.diff(stamps, prepend=np.nan))
        profiles = np.split(np.arange(len(stamps)), starts[1:])  # the rows of each
        # two profiles inside the first closure's crop window change places
        i = int(np.argmin(np.abs(stamps[starts] - t_l1)))
        profiles[i], profiles[i + 3] = profiles[i + 3], profiles[i]
        rows = np.concatenate(profiles)
        dataio.write_profiles(d2 / "profiles.csv", stamps[rows], points[rows])
        assert (d2 / "profiles.csv").read_bytes() != (d / "profiles.csv").read_bytes()
        # the binary copy of the old order stays beside the new file: stale
        shutil.copyfile(d / "profiles.csv.npz", d2 / "profiles.csv.npz")
        assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
        assert len(dataio.read_loop_closures(d2 / "loopclosures.csv")) == 2
        assert (d2 / "loopclosures.csv").read_bytes() == (d / "loopclosures.csv").read_bytes()
        with np.load(d2 / "profiles.csv.npz") as copy:
            assert str(copy["sha256"]) == sha256(d2 / "profiles.csv")
            assert np.array_equal(copy["rows"], np.loadtxt(
                d2 / "profiles.csv", delimiter=",", skiprows=1, ndmin=2))

    def test_outlier_injection_flag(self, dataset, tmp_path):
        d, cfg = dataset
        import shutil

        d2 = tmp_path / "d_out"
        shutil.copytree(d, d2)
        assert cli.main(
            ["closeloops", "--dataset", str(d2), "--config", cfg, "--outliers", "1"]
        ) == 0
        clean = dataio.read_loop_closures(d / "loopclosures.csv")
        dirty = dataio.read_loop_closures(d2 / "loopclosures.csv")
        # the rotation and position columns
        different = [not np.allclose(a[2:14], b[2:14]) for a, b in zip(clean, dirty)]
        assert sum(different) == 1
        report = json.loads((d2 / "closeloops_report.json").read_text())
        assert report["outliers_injected"] == 1
        # the replaced closure's crossing says so, and keeps its ICP run
        injected = [c for c in report["crossings"] if c["outcome"] == "outlier_injected"]
        assert len(injected) == 1
        assert [injected[0]["t1"], injected[0]["t2"]] == dirty[np.argmax(different), :2].tolist()
        assert injected[0]["icp"]["converged"] is True
        clean_report = json.loads((d / "closeloops_report.json").read_text())
        for entry, clean_entry in zip(report["crossings"], clean_report["crossings"]):
            assert entry == {**clean_entry, "outcome": entry["outcome"]}

    def test_report(self, dataset):
        d, cfg = dataset
        report = json.loads((d / "closeloops_report.json").read_text())
        assert report["inputs"] == {
            "prior": sha256(d / "prior.csv"), "profiles": sha256(d / "profiles.csv")
        }
        assert report["config_hash"] == dataio.config_hash(cli.load_config(cfg, None).to_flat())
        assert report["outliers_injected"] == 0
        closures = np.loadtxt(d / "loopclosures.csv", delimiter=",", skiprows=1, ndmin=2)
        crossings = report["crossings"]
        assert [[c["t1"], c["t2"]] for c in crossings] == closures[:, :2].tolist()
        for c in crossings:
            icp = c["icp"]
            assert c["outcome"] == "closure"
            assert icp["converged"] is True
            assert c["message"] == f"ICP converged after {icp['iterations']} iterations"
            assert 1 <= icp["iterations"] == len(icp["step_objectives"])
            for before, after in icp["step_objectives"]:
                assert after <= before * (1 + 1e-12) + 1e-15

    def test_report_keeps_unconverged_icp(self, dataset, tmp_path, capsys):
        # an alignment that stops at the iteration cap yields no closure: the
        # crossing is dropped as an alignment failure, and the report keeps
        # its ICP run
        import shutil

        d, _ = dataset
        d2 = tmp_path / "d_cap"
        shutil.copytree(d, d2)
        cfg = write_cfg(tmp_path, {"frontend.icp_max_iterations": "2"}, name="cap.cfg")
        assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
        captured = capsys.readouterr()
        report = json.loads((d2 / "closeloops_report.json").read_text())
        assert [c["outcome"] for c in report["crossings"]] == ["alignment_failure"] * 2
        for c in report["crossings"]:
            icp = c["icp"]
            assert icp["converged"] is False and icp["iterations"] == 2
            assert len(icp["step_objectives"]) == 2
            assert c["message"] == (
                "ICP stopped at the iteration cap after 2 iterations without converging")
            assert f"dropped crossing ({c['t1']:.1f}s, {c['t2']:.1f}s): {c['message']}\n" in (
                captured.err)
        assert len(dataio.read_loop_closures(d2 / "loopclosures.csv")) == 0
        assert "wrote 0 loop closures (2 dropped)" in captured.out

    @pytest.mark.parametrize(
        "extra, outcome, message",
        [
            ({"frontend.min_submap_points": "100000"}, "insufficient_overlap",
             "(minimum 100000)"),
            ({"frontend.voxel_cell": "5.0", "frontend.normal_neighbors": "2"},
             "alignment_failure", "too few points to align"),
        ],
        ids=["insufficient_overlap", "alignment_failure"],
    )
    def test_report_gives_drop_reasons(self, dataset, tmp_path, capsys, extra, outcome, message):
        import shutil

        d, _ = dataset
        d2 = tmp_path / "d_drop"
        shutil.copytree(d, d2)
        cfg = write_cfg(tmp_path, extra, name="drop.cfg")
        assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
        err = capsys.readouterr().err
        crossings = json.loads((d2 / "closeloops_report.json").read_text())["crossings"]
        assert len(crossings) == 2
        for c in crossings:
            assert c["outcome"] == outcome and c["icp"] is None
            assert c["message"].endswith(message)
            assert f"dropped crossing ({c['t1']:.1f}s, {c['t2']:.1f}s): {c['message']}\n" in err


class TestSmooth:
    def test_smooth_and_report(self, dataset):
        d, cfg = dataset
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0
        assert (d / "posterior.csv").exists()
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["converged"]
        assert report["stop_reason"] == "converged"
        assert report["loop_closures"] == 2
        trace = report["objective_trace"]
        assert len(trace) >= 2
        # one (before, after) pair per accepted step, never increasing
        steps = report["step_objectives"]
        assert len(steps) == report["iterations"] >= 1
        for before, after in steps:
            assert after <= before * (1 + 1e-12) + 1e-15
        assert report["damping_final"] >= 0.0
        assert report["inputs"] == {
            "prior": sha256(d / "prior.csv"),
            "loopclosures": sha256(d / "loopclosures.csv"),
        }
        assert report["config_hash"] == dataio.config_hash(cli.load_config(cfg, None).to_flat())
        assert {f.name for f in fields(solver.SolveReport)} <= report.keys()

    def test_keep_first_k(self, dataset):
        d, cfg = dataset
        assert cli.main(
            ["smooth", "--dataset", str(d), "--config", cfg, "--loop-closures", "0"]
        ) == 0
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["loop_closures"] == 0
        # re-smooth with all closures for downstream tests
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0

    def test_negative_loop_closures_rejected(self, dataset, capsys):
        d, cfg = dataset
        with pytest.raises(SystemExit) as exit_:
            cli.main(["smooth", "--dataset", str(d), "--config", cfg, "--loop-closures", "-3"])
        assert exit_.value.code == cli.EXIT_VALIDATION
        assert "argument --loop-closures: must not be negative, got -3" in (
            capsys.readouterr().err)

    def test_no_robust_flag(self, dataset):
        d, cfg = dataset
        assert cli.main(
            ["smooth", "--dataset", str(d), "--config", cfg, "--no-robust"]
        ) == 0
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["robust"] is False
        assert all(w == 1.0 for w in report["loop_weights"])
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0

    def test_no_robust_flag_is_robust_disabled_in_config(self, dataset, tmp_path):
        # the flag and the key run, and hash, the same configuration
        d, cfg = dataset
        off = write_cfg(tmp_path, {"robust.enabled": "false"})
        docs = []
        for argv in (["--config", cfg, "--no-robust"], ["--config", off]):
            assert cli.main(["smooth", "--dataset", str(d), *argv]) == 0
            docs.append((d / "smooth_report.json").read_text())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["config_hash"] == dataio.config_hash(
            cli.load_config(off, None).to_flat()
        )
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0

    def test_malformed_closure_csv(self, dataset, tmp_path, capsys):
        d, cfg = dataset
        bad = tmp_path / "bad.csv"
        bad.write_text("t_l1,t_l2\n1.0,garbage\n")
        code = cli.main(
            ["smooth", "--dataset", str(d), "--config", cfg,
             "--loopclosures", str(bad)]
        )
        assert code == cli.EXIT_VALIDATION

    def test_missing_dataset_is_io_error(self, tmp_path):
        code = cli.main(["smooth", "--dataset", str(tmp_path / "nope")])
        assert code == cli.EXIT_IO

    def test_closure_time_in_sampling_gap_inserts_node(self, dataset, tmp_path, monkeypatch):
        # on a uniform grid every time resolves to a node, so insertion only
        # triggers when the trajectory has a dropout around the closure time
        import shutil

        d, cfg = dataset
        d2 = tmp_path / "d_interp"
        shutil.copytree(d, d2)
        pruned, t1 = prune_prior(d2, 1)
        parsed, load_csv = [], dataio._load_csv

        def spy(path, what):
            parsed.append(Path(path))
            return load_csv(path, what)

        monkeypatch.setattr(dataio, "_load_csv", spy)
        assert cli.main(["smooth", "--dataset", str(d2), "--config", cfg]) == 0
        posterior = dataio.read_trajectory(d2 / "posterior.csv")
        assert len(posterior) == len(pruned) + 1
        assert np.any(np.isclose(posterior.times, t1))
        # one parse of the closures places them, inserted node and all
        assert parsed.count(d2 / "loopclosures.csv") == 1

    def test_cut_closures_insert_no_node(self, dataset, tmp_path):
        # --loop-closures cuts the rows before any node is inserted
        import shutil

        d, cfg = dataset
        d2 = tmp_path / "d_cut"
        shutil.copytree(d, d2)
        pruned, _ = prune_prior(d2, 2)
        assert cli.main(
            ["smooth", "--dataset", str(d2), "--config", cfg, "--loop-closures", "1"]
        ) == 0
        assert json.loads((d2 / "smooth_report.json").read_text())["loop_closures"] == 1
        posterior = dataio.read_trajectory(d2 / "posterior.csv")
        assert np.array_equal(posterior.times, pruned.times)

    def test_closure_times_in_one_gap_share_a_node(self, tmp_path):
        write_flipped_line(tmp_path)
        # the second closure's t_l1 0.03 s after the first's, less than half a
        # period, both in a gap from 0.2 s to 0.8 s
        set_fields(tmp_path / "loopclosures.csv", 2, {0: "0.53"})
        pruned, _ = prune_prior(tmp_path, 1)
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_OK
        posterior = dataio.read_trajectory(tmp_path / "posterior.csv")
        assert posterior.times.tolist() == sorted(pruned.times.tolist() + [0.5])

    @pytest.mark.parametrize(
        "fields, problem",
        [
            *BAD_CLOSURE_VALUES,
            ({1: "7.0"}, "holds a closure time outside the trajectory's time span"),
            ({0: "4.0", 1: "1.0"},
             "holds a t_l1 that does not land on an earlier node than its t_l2"),
            ({0: "3.98"}, "holds a t_l1 that does not land on an earlier node than its t_l2"),
        ],
        ids=[*BAD_CLOSURE_IDS, "outside_span", "t_l1_after_t_l2", "t_l1_on_t_l2_node"],
    )
    def test_bad_closure_row_names_file_and_row(self, tmp_path, capsys, fields, problem):
        write_flipped_line(tmp_path)
        lc = tmp_path / "loopclosures.csv"
        set_fields(lc, 2, fields)
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {lc}: data row 2 {problem}\n"
        assert not (tmp_path / "posterior.csv").exists()
        assert not (tmp_path / "smooth_report.json").exists()

    def test_zero_quaternion_rejected(self, tmp_path, capsys):
        write_flipped_line(tmp_path)
        set_fields(tmp_path / "prior.csv", 10, dict.fromkeys(range(4, 8), "0"))
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'prior.csv'}: data row 10 holds a quaternion of norm below 1e-6\n"
        )
        assert not (tmp_path / "posterior.csv").exists()

    def test_repeated_time_rejected(self, tmp_path, capsys):
        write_flipped_line(tmp_path)
        prior = tmp_path / "prior.csv"
        lines = prior.read_text().splitlines()
        lines[11] = lines[10]
        prior.write_text("\n".join(lines) + "\n")
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {prior}: data row 11 holds a time not later than the row before it\n"
        )
        assert not (tmp_path / "posterior.csv").exists()

    def test_survey_coordinates(self, dataset, tmp_path):
        # the survey logged at UTM magnitudes; profiles.csv is in the sensor
        # frame, so only the trajectories move
        import shutil

        d, cfg = dataset
        runs = {}
        for name, offset in (("origin", np.zeros(2)), ("utm", np.array([5e5, 5e6]))):
            d2 = tmp_path / name
            shutil.copytree(d, d2)
            for csv in ("prior.csv", "truth.csv"):
                trajectory = dataio.read_trajectory(d2 / csv)
                trajectory.poses[:, :2, 3] += offset
                dataio.write_trajectory(d2 / csv, trajectory)
            assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
            assert cli.main(["smooth", "--dataset", str(d2), "--config", cfg]) == 0
            report = json.loads((d2 / "smooth_report.json").read_text())
            posterior = dataio.read_trajectory(d2 / "posterior.csv").poses
            posterior[:, :2, 3] -= offset
            closures = np.loadtxt(d2 / "loopclosures.csv", delimiter=",", skiprows=1)
            runs[name] = report, posterior, closures
        (report, posterior, closures), (report_u, posterior_u, closures_u) = runs.values()
        assert report["converged"] and report_u["converged"]
        assert report_u["iterations"] == report["iterations"]
        # the front end registers the profiles at the survey's coordinates,
        # which moves its closures by a few 1e-10
        assert closures_u.shape == closures.shape
        assert np.abs(closures_u - closures).max() <= 1e-8
        assert np.abs(posterior_u - posterior).max() <= 1e-7
        assert np.abs(np.subtract(report_u["loop_weights"], report["loop_weights"])).max() <= 1e-9

    @pytest.mark.parametrize("orthonormal", [True, False], ids=["exact", "off_so3"])
    def test_flipped_closure_rejected(self, tmp_path, orthonormal):
        times, poses, closures = flipped_closure_line(orthonormal)
        dataio.write_trajectory(tmp_path / "prior.csv", Trajectory(times, poses))
        dataio.write_loop_closures(tmp_path / "loopclosures.csv", closures, times)
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "smooth_report.json").read_text())
        assert report["converged"]
        assert report["loop_weights"][1] < 0.01
        assert report["loop_weights"][0] > 0.5

    @settings(max_examples=25, deadline=None, database=None)
    @given(offset=st.floats(-1e4, 1e4))
    def test_posterior_invariant_to_time_offset(self, flipped_line_posterior, offset):
        # the motion prior sees only the time differences
        with tempfile.TemporaryDirectory() as d:
            poses, weights, iterations = smooth_flipped_line(Path(d), offset)
        base_poses, base_weights, base_iterations = flipped_line_posterior
        assert iterations == base_iterations
        assert np.abs(poses - base_poses).max() <= 1e-9
        assert np.abs(weights - base_weights).max() <= 1e-9

    def test_non_finite_prior_rejected(self, tmp_path, capsys):
        write_flipped_line(tmp_path)
        set_fields(tmp_path / "prior.csv", 7, {1: "nan"})
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{tmp_path / 'prior.csv'}: data row 7" in err
        assert not (tmp_path / "posterior.csv").exists()
        assert not (tmp_path / "smooth_report.json").exists()

    def test_unconverged_solve_exits_zero(self, dataset, tmp_path):
        # a solve that stops short of convergence without failing is a
        # result: exit 0, the last iterate written, the reason in the report
        import shutil

        d, _ = dataset
        d2 = tmp_path / "d_short"
        shutil.copytree(d, d2)
        (d2 / "posterior.csv").unlink(missing_ok=True)
        cfg = write_cfg(tmp_path, {"solver.max_iterations": "1"}, name="short.cfg")
        assert cli.main(["smooth", "--dataset", str(d2), "--config", cfg]) == cli.EXIT_OK
        report = json.loads((d2 / "smooth_report.json").read_text())
        assert report["failed"] is False and report["converged"] is False
        assert report["stop_reason"] == "max_iterations"
        assert report["message"] == "max iterations reached"
        assert report["iterations"] == 1
        assert (d2 / "posterior.csv").exists()

    def test_solver_failure_writes_best_iterate(self, dataset, tmp_path):
        import shutil

        d, _ = dataset
        d2 = tmp_path / "d_fail"
        shutil.copytree(d, d2)
        (d2 / "posterior.csv").unlink(missing_ok=True)
        # a vanishing prior leaves the graph without an anchor, and relative-pose
        # factors this stiff keep its normal equations numerically singular up
        # to the damping cap
        weak = {f"prior.sigma_{k}": "1e30" for k in ("phi", "rho", "omega", "nu")}
        cfg = write_cfg(
            tmp_path,
            {**weak, "rel.sigma_phi": "1e-16", "rel.sigma_rho": "1e-14"},
            name="stiff.cfg",
        )
        code = cli.main(["smooth", "--dataset", str(d2), "--config", cfg])
        assert code == cli.EXIT_SOLVER
        report = json.loads((d2 / "smooth_report.json").read_text())
        assert report["failed"] is True
        assert "singular" in report["failure"]
        assert report["converged"] is False
        assert report["stop_reason"] == "singular"
        assert report["iterations"] == 0
        # no step was accepted, so the best iterate is the initialization
        posterior = dataio.read_trajectory(d2 / "posterior.csv")
        prior = dataio.read_trajectory(d2 / "prior.csv")
        assert np.array_equal(posterior.times, prior.times)
        assert np.abs(posterior.poses - prior.poses).max() <= 1e-12


class TestEvaluate:
    def test_estimate_equals_truth_zero_report(self, dataset, tmp_path):
        d, cfg = dataset
        out = tmp_path / "eval0"
        assert cli.main(
            ["evaluate", "--estimate", str(d / "truth.csv"),
             "--truth", str(d / "truth.csv"),
             "--loopclosures", str(d / "loopclosures.csv"),
             "--out", str(out), "--config", cfg]
        ) == 0
        summary = json.loads((out / "evaluation.json").read_text())
        assert summary["relative_displacement"]["max"] < 1e-12

    def test_posterior_beats_prior_disparity(self, dataset, tmp_path):
        d, cfg = dataset
        results = {}
        for name in ("prior", "posterior"):
            out = tmp_path / f"eval_{name}"
            assert cli.main(
                ["evaluate", "--estimate", str(d / f"{name}.csv"),
                 "--truth", str(d / "truth.csv"),
                 "--profiles", str(d / "profiles.csv"),
                 "--loopclosures", str(d / "loopclosures.csv"),
                 "--out", str(out), "--config", cfg]
            ) == 0
            results[name] = json.loads((out / "evaluation.json").read_text())
        prior_med = results["prior"]["point_disparity"]["quantiles"]["0.5"]
        post_med = results["posterior"]["point_disparity"]["quantiles"]["0.5"]
        assert post_med < prior_med

    def test_off_node_closure_rejected(self, tmp_path, capsys):
        # evaluate inserts no node: a closure time in a gap of the estimate
        write_flipped_line(tmp_path)
        prune_prior(tmp_path, 2)
        lc = tmp_path / "loopclosures.csv"
        assert cli.main(
            ["evaluate", "--estimate", str(tmp_path / "prior.csv"), "--loopclosures", str(lc)]
        ) == cli.EXIT_VALIDATION
        assert f"error: {lc}: data row 2 holds a closure time more than half a sample " \
            "period from every node\n" in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("fields, problem", BAD_CLOSURE_VALUES, ids=BAD_CLOSURE_IDS)
    def test_bad_closure_values_rejected(self, tmp_path, capsys, fields, problem):
        write_flipped_line(tmp_path)
        lc = tmp_path / "loopclosures.csv"
        set_fields(lc, 2, fields)
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--estimate", str(tmp_path / "prior.csv"),
                         "--loopclosures", str(lc), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {lc}: data row 2 {problem}\n"
        assert not out.exists()

    def test_hovering_vehicle_has_no_percent_distance(self, tmp_path):
        hover = Trajectory(np.arange(50) * 0.1, np.tile(np.eye(4), (50, 1, 1)))
        dataio.write_trajectory(tmp_path / "hover.csv", hover)
        assert cli.main(
            ["evaluate", "--estimate", str(tmp_path / "hover.csv"),
             "--truth", str(tmp_path / "hover.csv")]
        ) == cli.EXIT_OK
        summary = json.loads((tmp_path / "evaluation.json").read_text())
        assert summary["relative_displacement"]["final"] == 0.0
        assert "percent_distance_traveled" not in summary["relative_displacement"]
        assert "percent_distance_traveled (the estimate has no planar path length)" \
            in summary["omitted"]

    def test_closure_crops_do_not_share_points(self, tmp_path):
        # a hovering vehicle that sees one point per second, each in its own
        # voxel; the closure's two crops are cut with the front end's window,
        # so no point lands in both and is its own nearest neighbour
        times = np.arange(61.0)
        hover = Trajectory(times, np.tile(np.eye(4), (61, 1, 1)))
        dataio.write_trajectory(tmp_path / "prior.csv", hover)
        x = 0.08 * np.random.default_rng(0).permutation(61)
        points = np.column_stack([x, np.zeros(61), np.full(61, -10.0)])
        dataio.write_profiles(tmp_path / "profiles.csv", times, points)
        closure = LoopClosureMeasurement(15, 45, np.eye(4), np.eye(6))
        dataio.write_loop_closures(tmp_path / "loopclosures.csv", [closure], times)
        assert cli.main(
            ["evaluate", "--estimate", str(tmp_path / "prior.csv"),
             "--profiles", str(tmp_path / "profiles.csv"),
             "--loopclosures", str(tmp_path / "loopclosures.csv")]
        ) == cli.EXIT_OK
        samples = np.loadtxt(tmp_path / "disparity.csv", skiprows=1)
        assert samples.size and samples.min() >= 0.08 - 1e-12

    def test_missing_loopclosures_is_io_error(self, dataset, tmp_path, capsys):
        d, cfg = dataset
        out = tmp_path / "eval_missing"
        code = cli.main(
            ["evaluate", "--estimate", str(d / "posterior.csv"),
             "--truth", str(d / "truth.csv"),
             "--loopclosures", str(tmp_path / "nope.csv"),
             "--out", str(out), "--config", cfg]
        )
        assert code == cli.EXIT_IO
        assert "nope.csv" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()

    @pytest.mark.parametrize("bad", ["estimate", "truth", "profiles", "loopclosures",
                                     "estimate-nan", "profiles-columns"])
    def test_missing_input_writes_nothing(self, dataset, tmp_path, capsys, bad):
        # every input is hashed, then read and measured, before --out is
        # created: a missing input (exit 4) or an invalid one (exit 2) leaves none
        import shutil

        d, cfg = dataset
        paths = {role: d / f"{role}.csv" for role in ("truth", "profiles", "loopclosures")}
        paths["estimate"] = d / "prior.csv"
        role, _, defect = bad.partition("-")
        broken = tmp_path / "bad.csv"
        if defect == "nan":  # a NaN in data row 2
            shutil.copyfile(paths[role], broken)
            set_fields(broken, 2, {1: "nan"})
        elif defect == "columns":  # three columns where four belong
            broken.write_text("t,x,y\n0,1,2\n")
        paths[role] = broken
        out = tmp_path / "eval_bad"
        argv = ["evaluate", "--out", str(out), "--config", cfg]
        argv += [arg for role, path in paths.items() for arg in (f"--{role}", str(path))]
        assert cli.main(argv) == (cli.EXIT_VALIDATION if defect else cli.EXIT_IO)
        assert "bad.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_report_names_config_and_inputs(self, dataset, tmp_path):
        d, cfg = dataset
        out = tmp_path / "eval_inputs"
        argv = ["evaluate", "--estimate", str(d / "prior.csv"), "--out", str(out), "--config", cfg]
        assert cli.main(argv) == 0
        summary = json.loads((out / "evaluation.json").read_text())
        assert summary["config_hash"] == dataio.config_hash(cli.load_config(cfg, None).to_flat())
        assert summary["inputs"] == {"estimate": sha256(d / "prior.csv")}
        argv += ["--truth", str(d / "truth.csv"), "--profiles", str(d / "profiles.csv"),
                 "--loopclosures", str(d / "loopclosures.csv")]
        assert cli.main(argv) == 0
        summary = json.loads((out / "evaluation.json").read_text())
        assert summary["inputs"] == {
            "estimate": sha256(d / "prior.csv"),
            **{role: sha256(d / f"{role}.csv") for role in ("truth", "profiles", "loopclosures")},
        }

    def test_inputs_sharing_a_name_keep_a_digest_each(self, dataset, tmp_path):
        # two different files called x.csv, one the estimate and one the truth
        import shutil

        d, cfg = dataset
        for sub, name in (("a", "truth.csv"), ("b", "prior.csv")):
            (tmp_path / sub).mkdir()
            shutil.copyfile(d / name, tmp_path / sub / "x.csv")
        assert cli.main(["evaluate", "--estimate", str(tmp_path / "b" / "x.csv"),
                         "--truth", str(tmp_path / "a" / "x.csv"), "--config", cfg]) == 0
        summary = json.loads((tmp_path / "b" / "evaluation.json").read_text())
        assert summary["inputs"] == {
            "estimate": sha256(d / "prior.csv"), "truth": sha256(d / "truth.csv")
        }

    def test_profiles_without_closures_are_not_read(self, dataset, tmp_path, monkeypatch):
        # the cloud only feeds the closure crops: with no closures given, the
        # profiles are neither read nor registered, yet their digest is kept
        d, cfg = dataset
        argv = ["evaluate", "--estimate", str(d / "prior.csv"), "--truth", str(d / "truth.csv"),
                "--config", cfg]
        assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
        calls = []
        monkeypatch.setattr(dataio, "read_profiles", lambda *a: calls.append("read"))
        monkeypatch.setattr(frontend, "register_profiles", lambda *a: calls.append("register"))
        argv += ["--profiles", str(d / "profiles.csv"), "--out", str(tmp_path / "spied")]
        assert cli.main(argv) == 0
        assert calls == []
        plain, spied = (json.loads((tmp_path / run / "evaluation.json").read_text())
                        for run in ("plain", "spied"))
        assert spied.pop("omitted") == ["point_disparity (no loop closures given)"]
        assert plain.pop("omitted") == ["point_disparity (no profiles provided)"]
        assert spied["inputs"].pop("profiles") == sha256(d / "profiles.csv")
        assert spied == plain
        assert sorted(p.name for p in (tmp_path / "spied").iterdir()) == [
            "evaluation.json", "relative_errors.csv"]
        assert ((tmp_path / "spied" / "relative_errors.csv").read_bytes()
                == (tmp_path / "plain" / "relative_errors.csv").read_bytes())

    def test_disparity_only_marks_omissions(self, dataset, tmp_path):
        d, cfg = dataset
        out = tmp_path / "eval_d"
        assert cli.main(
            ["evaluate", "--estimate", str(d / "posterior.csv"),
             "--profiles", str(d / "profiles.csv"),
             "--loopclosures", str(d / "loopclosures.csv"),
             "--out", str(out), "--config", cfg]
        ) == 0
        summary = json.loads((out / "evaluation.json").read_text())
        assert any("relative_errors" in o for o in summary["omitted"])
        assert "point_disparity" in summary


@pytest.mark.parametrize(
    "extra", [{}, {"frontend.icp_max_iterations": "2"}], ids=["closures", "dropped"]
)
def test_outputs_do_not_depend_on_cpu_count(dataset, tmp_path, capsys, monkeypatch, extra):
    # closeloops and evaluate in one directory, on the calling thread alone
    # and then beside a helper thread: the same bytes and the same messages
    import shutil

    d = tmp_path / "d"
    shutil.copytree(dataset[0], d)
    cfg = write_cfg(tmp_path, extra, name="cpus.cfg")
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert cli.main(["closeloops", "--dataset", str(d), "--config", cfg]) == 0
        assert cli.main(
            ["evaluate", "--estimate", str(d / "prior.csv"), "--truth", str(d / "truth.csv"),
             "--profiles", str(d / "profiles.csv"), "--loopclosures", str(d / "loopclosures.csv"),
             "--out", str(d / "eval"), "--config", cfg]
        ) == 0
        files = ["loopclosures.csv", "closeloops_report.json", "eval/evaluation.json",
                 "eval/relative_errors.csv", "eval/disparity.csv"]
        runs.append((
            {name: (d / name).read_bytes() for name in files if (d / name).exists()},
            capsys.readouterr(),
        ))
        shutil.rmtree(d / "eval")
    (files, captured), again = runs
    assert again == (files, captured)
    report = json.loads(files["closeloops_report.json"])
    outcomes = [c["outcome"] for c in report["crossings"]]
    if extra:
        assert outcomes == ["alignment_failure"] * 2 and "disparity.csv" not in files
        assert captured.err.count("dropped crossing") == 2
    else:
        assert outcomes == ["closure"] * 2 and "eval/disparity.csv" in files


# The CLI contract on bad input, one case per changed row of one input file
# of the two-pass survey sampled at 5 Hz.

FIVE_HZ = {"sim.node_rate": "5.0"}


@pytest.fixture(scope="module")
def survey_5hz(tmp_path_factory):
    root = tmp_path_factory.mktemp("survey_5hz")
    cfg = write_cfg(root, FIVE_HZ)
    assert cli.main(["simulate", "--out", str(root / "d"), "--config", cfg]) == 0
    assert cli.main(["closeloops", "--dataset", str(root / "d"), "--config", cfg]) == 0
    return root / "d", cfg


# numpy's own messages, which the CLI never passes on
NUMPY_TEXT = ("Singular matrix", "Matrix is not positive definite", "LinAlgError", "Traceback",
              "Warning", "usecols", "could not convert", "numpy")
ROTATION = range(2, 11)
# case: (stage, input file, data row, change, exit code, what stderr names);
# a row of None changes the configuration file, {key: value}
CLI_CONTRACT = {
    "prior_nan": ("smooth", "prior.csv", 7, {1: "nan"}, 2, "data row 7 holds a non-finite value"),
    "prior_too_few_columns": ("smooth", "prior.csv", 7, {7: None}, 2,
                              "data row 7 does not hold 8 numbers"),
    "prior_repeated_time": ("smooth", "prior.csv", 7, {0: "previous"}, 2,
                            "data row 7 holds a time not later than the row before it"),
    "prior_zero_quaternion": ("smooth", "prior.csv", 7, dict.fromkeys(range(4, 8), "0"), 2,
                              "data row 7 holds a quaternion of norm below 1e-6"),
    "closure_nan": ("smooth", "loopclosures.csv", 1, {12: "nan"}, 2,
                    "data row 1 holds a non-finite value"),
    "closure_too_few_columns": ("smooth", "loopclosures.csv", 1, {19: None}, 2,
                                "data row 1 does not hold 20 numbers"),
    "closure_zero_rotation": ("smooth", "loopclosures.csv", 1, dict.fromkeys(ROTATION, "0"), 2,
                              f"data row 1 {NOT_A_ROTATION}"),
    "closure_scaled_rotation": ("smooth", "loopclosures.csv", 1,
                                dict(zip(ROTATION, "2 0 0 0 2 0 0 0 2".split())), 2,
                                f"data row 1 {NOT_A_ROTATION}"),
    "closure_reflected_rotation": ("smooth", "loopclosures.csv", 1,
                                   dict(zip(ROTATION, "1 0 0 0 1 0 0 0 -1".split())), 2,
                                   f"data row 1 {NOT_A_ROTATION}"),
    "closure_zero_variance": ("smooth", "loopclosures.csv", 1, {14: "0"}, 2,
                              f"data row 1 {NOT_POSITIVE}"),
    "closure_negative_variance": ("smooth", "loopclosures.csv", 1, {19: "-1e-4"}, 2,
                                  f"data row 1 {NOT_POSITIVE}"),
    # the robust cost is the designed answer to a closure 1e12 m out of range
    "closure_far_translation": ("smooth", "loopclosures.csv", 1, {11: "1e12"}, 0, None),
    # a closure this stiff leaves the normal equations singular up to the cap
    "closure_vanishing_variances": ("smooth", "loopclosures.csv", 1,
                                    dict.fromkeys(range(14, 20), "1e-300"), 3, None),
    "closure_time_off_nodes": ("smooth", "loopclosures.csv", 1, {1: "1e6"}, 2,
                               "data row 1 holds a closure time outside the trajectory's "
                               "time span"),
    "config_nan": ("smooth", "config", None, {"solver.step_tolerance": "nan"}, 2,
                   "configuration key 'solver.step_tolerance' must be finite"),
    "closeloops_prior_nan": ("closeloops", "prior.csv", 3, {2: "nan"}, 2,
                             "data row 3 holds a non-finite value"),
    "closeloops_profiles_nan": ("closeloops", "profiles.csv", 5, {3: "nan"}, 2,
                                "data row 5 holds a non-finite value"),
    "closeloops_profiles_too_few_columns": ("closeloops", "profiles.csv", 5, {3: None}, 2,
                                            "data row 5 does not hold 4 numbers"),
    "evaluate_truth_repeated_time": ("evaluate", "truth.csv", 9, {0: "previous"}, 2,
                                     "data row 9 holds a time not later than the row before it"),
    "evaluate_closure_zero_rotation": ("evaluate", "loopclosures.csv", 2,
                                       dict.fromkeys(ROTATION, "0"), 2,
                                       f"data row 2 {NOT_A_ROTATION}"),
    "evaluate_closure_time_off_nodes": ("evaluate", "loopclosures.csv", 2, {0: "-1e6"}, 2,
                                        "data row 2 holds a closure time more than half a "
                                        "sample period from every node"),
    "evaluate_closure_far_translation": ("evaluate", "loopclosures.csv", 2, {11: "1e12"}, 0,
                                         None),
}


@pytest.mark.parametrize("case", CLI_CONTRACT)
def test_cli_contract(survey_5hz, tmp_path, capsys, case):
    import shutil

    stage, name, row, change, code, named = CLI_CONTRACT[case]
    d = tmp_path / "d"
    shutil.copytree(survey_5hz[0], d)
    cfg = survey_5hz[1]
    if row is None:
        cfg = write_cfg(tmp_path, {**FIVE_HZ, **change})
    else:
        set_fields(d / name, row, change)
    outputs = {
        "closeloops": [d / "loopclosures.csv", d / "closeloops_report.json"],
        "smooth": [d / "posterior.csv", d / "smooth_report.json"],
        "evaluate": [tmp_path / "eval"],
    }[stage]
    for path in outputs[:2] if stage == "closeloops" else ():
        path.unlink()
    argv = [stage, "--dataset", str(d)] if stage != "evaluate" else [
        "evaluate", "--estimate", str(d / "prior.csv"), "--truth", str(d / "truth.csv"),
        "--profiles", str(d / "profiles.csv"), "--loopclosures", str(d / "loopclosures.csv"),
        "--out", str(tmp_path / "eval")]
    assert cli.main([*argv, "--config", cfg]) == code
    err = capsys.readouterr().err
    assert not [text for text in NUMPY_TEXT if text in err]
    if code in (cli.EXIT_VALIDATION, cli.EXIT_IO):
        assert named in err and (row is None or f"{d / name}: " in err)
        assert not [path for path in outputs if path.exists()]
    else:
        assert all(path.exists() for path in outputs)
    if code == cli.EXIT_SOLVER:  # the best iterate, here the input
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["failed"] and report["stop_reason"] == "singular"
        assert report["iterations"] == 0
        posterior = dataio.read_trajectory(d / "posterior.csv")
        prior = dataio.read_trajectory(d / "prior.csv")
        assert np.abs(posterior.poses - prior.poses).max() <= 1e-12


def test_far_out_of_range_closure_is_an_outlier(survey_5hz, tmp_path):
    # a closure 1e12 m out of range: its robust weight goes to 0, and the
    # other closure keeps its own
    import shutil

    d = tmp_path / "d"
    shutil.copytree(survey_5hz[0], d)
    set_fields(d / "loopclosures.csv", 1, {11: "1e12"})
    assert cli.main(["smooth", "--dataset", str(d), "--config", survey_5hz[1]]) == cli.EXIT_OK
    report = json.loads((d / "smooth_report.json").read_text())
    assert report["converged"] and report["stop_reason"] == "converged"
    weights = report["loop_weights"]
    assert weights[0] < 0.01 and min(weights[1:]) > 0.5
