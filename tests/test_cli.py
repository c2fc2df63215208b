import hashlib
import json
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsmooth import cli, dataio, lie, sim, solver
from lcsmooth.factors import LoopClosureMeasurement
from lcsmooth.trajectory import Trajectory

from conftest import flipped_closure_line


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


def set_fields(path, row, values):
    """Overwrite fields of data row ``row`` of the CSV ``path``: {column: text}."""
    lines = Path(path).read_text().splitlines()
    fields = lines[row].split(",")
    for column, text in values.items():
        fields[column] = text
    lines[row] = ",".join(fields)
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

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("sim.scan_rate", "0"),
            ("sim.turn_radius", "0"),
            ("sim.passes", "0"),
            ("frontend.normal_neighbors", "0"),
            ("frontend.min_inlier_fraction", "0"),
            ("frontend.min_inlier_fraction", "1.5"),
            ("frontend.icp_max_iterations", "0"),
            ("solver.max_iterations", "0"),
            ("solver.step_tolerance", "0"),
            ("prior.sigma_omega", "0"),
            ("prior.sigma_nu", "0"),
            ("frontend.icp_rot_tol", "0"),
            ("frontend.icp_trans_tol", "0"),
        ],
    )
    def test_out_of_range_value_names_key(self, tmp_path, capsys, key, raw):
        cfg = write_cfg(tmp_path, {key: raw})
        code = cli.main(["simulate", "--out", str(tmp_path / "d"), "--config", cfg])
        assert code == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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
        import lcsmooth.sim as sim

        d = tmp_path / "line"
        d.mkdir()
        n = 200
        poses = np.tile(np.eye(4), (n, 1, 1))
        poses[:, 0, 3] = np.arange(n) * 0.1
        traj = Trajectory(times=np.arange(n) * 0.1, poses=poses)
        dataio.write_trajectory(d / "prior.csv", traj)
        terrain = sim.TerrainSpec()
        profiles = sim.synth_scan(traj, terrain, sim.ScannerSpec(beams=4), seed=0)
        dataio.write_profiles(d / "profiles.csv", profiles)
        assert cli.main(["closeloops", "--dataset", str(d)]) == 0
        assert "no path crossings" in capsys.readouterr().err
        assert dataio.read_loop_closures(d / "loopclosures.csv").shape == (0, 20)
        report = json.loads((d / "closeloops_report.json").read_text())
        assert report["crossings"] == []
        assert set(report["inputs"]) == {"prior.csv", "profiles.csv"}

    def test_profile_order_in_file_does_not_matter(self, dataset, tmp_path):
        d, cfg = dataset
        import shutil

        d2 = tmp_path / "d_swapped"
        shutil.copytree(d, d2)
        t_l1 = np.loadtxt(d / "loopclosures.csv", delimiter=",", skiprows=1, ndmin=2)[0, 0]
        profiles = dataio.read_profiles(d / "profiles.csv")
        # two profiles inside the first closure's crop window change places
        i = int(np.argmin([abs(p.timestamp - t_l1) for p in profiles]))
        profiles[i], profiles[i + 3] = profiles[i + 3], profiles[i]
        dataio.write_profiles(d2 / "profiles.csv", profiles)
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
        different = sum(not np.allclose(a[2:14], b[2:14]) for a, b in zip(clean, dirty))
        assert different == 1
        report = json.loads((d2 / "closeloops_report.json").read_text())
        assert report["outliers_injected"] == 1

    def test_report(self, dataset):
        d, cfg = dataset
        report = json.loads((d / "closeloops_report.json").read_text())
        assert report["inputs"] == {
            "prior.csv": sha256(d / "prior.csv"), "profiles.csv": sha256(d / "profiles.csv")
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

    def test_report_keeps_unconverged_icp(self, dataset, tmp_path):
        # an alignment that stops at the iteration cap still yields a closure,
        # and the report says so
        import shutil

        d, _ = dataset
        d2 = tmp_path / "d_cap"
        shutil.copytree(d, d2)
        cfg = write_cfg(tmp_path, {"frontend.icp_max_iterations": "2"}, name="cap.cfg")
        assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
        report = json.loads((d2 / "closeloops_report.json").read_text())
        assert [c["outcome"] for c in report["crossings"]] == ["closure"] * 2
        for c in report["crossings"]:
            assert c["icp"]["converged"] is False and c["icp"]["iterations"] == 2
            assert "iteration cap" in c["message"]

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
            "prior.csv": sha256(d / "prior.csv"),
            "loopclosures.csv": sha256(d / "loopclosures.csv"),
        }
        assert report["config_hash"] == dataio.config_hash(cli.load_config(cfg, None).to_flat())

    def test_keep_first_k(self, dataset):
        d, cfg = dataset
        assert cli.main(
            ["smooth", "--dataset", str(d), "--config", cfg, "--loop-closures", "0"]
        ) == 0
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["loop_closures"] == 0
        # re-smooth with all closures for downstream tests
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0

    def test_no_robust_flag(self, dataset):
        d, cfg = dataset
        assert cli.main(
            ["smooth", "--dataset", str(d), "--config", cfg, "--no-robust"]
        ) == 0
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["robust"] is False
        assert all(w == 1.0 for w in report["loop_weights"])
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
            ({1: "7.0"}, "holds a closure time outside the trajectory's time span"),
            ({0: "4.0", 1: "1.0"},
             "holds a t_l1 that does not land on an earlier node than its t_l2"),
            ({0: "3.98"}, "holds a t_l1 that does not land on an earlier node than its t_l2"),
        ],
        ids=["outside_span", "t_l1_after_t_l2", "t_l1_on_t_l2_node"],
    )
    def test_bad_closure_row_names_file_and_row(self, tmp_path, capsys, fields, problem):
        write_flipped_line(tmp_path)
        lc = tmp_path / "loopclosures.csv"
        set_fields(lc, 2, fields)
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert f"error: {lc}: data row 2 {problem}\n" in capsys.readouterr().err
        assert not (tmp_path / "posterior.csv").exists()

    def test_zero_quaternion_rejected(self, tmp_path, capsys):
        write_flipped_line(tmp_path)
        set_fields(tmp_path / "prior.csv", 10, dict.fromkeys(range(4, 8), "0"))
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'prior.csv'}: data row 10 holds a quaternion of norm below 1e-6\n"
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
