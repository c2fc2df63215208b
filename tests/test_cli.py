import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsmooth import cli, dataio, lie
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
        prior = dataio.read_trajectory(d / "prior.csv")
        meas = dataio.read_loop_closures(d / "loopclosures.csv", prior.times)
        assert len(meas) == 2  # one crossing per pass in the small survey

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
        prior = dataio.read_trajectory(d / "prior.csv")
        assert dataio.read_loop_closures(d / "loopclosures.csv", prior.times) == []

    def test_profile_order_in_file_does_not_matter(self, dataset, tmp_path):
        d, cfg = dataset
        import shutil

        d2 = tmp_path / "d_swapped"
        shutil.copytree(d, d2)
        prior = dataio.read_trajectory(d / "prior.csv")
        t_l1 = np.loadtxt(d / "loopclosures.csv", delimiter=",", skiprows=1, ndmin=2)[0, 0]
        profiles = dataio.read_profiles(d / "profiles.csv")
        # two profiles inside the first closure's crop window change places
        i = int(np.argmin([abs(p.timestamp - t_l1) for p in profiles]))
        profiles[i], profiles[i + 3] = profiles[i + 3], profiles[i]
        dataio.write_profiles(d2 / "profiles.csv", profiles)
        assert (d2 / "profiles.csv").read_bytes() != (d / "profiles.csv").read_bytes()
        assert cli.main(["closeloops", "--dataset", str(d2), "--config", cfg]) == 0
        assert len(dataio.read_loop_closures(d2 / "loopclosures.csv", prior.times)) == 2
        assert (d2 / "loopclosures.csv").read_bytes() == (d / "loopclosures.csv").read_bytes()

    def test_outlier_injection_flag(self, dataset, tmp_path):
        d, cfg = dataset
        import shutil

        d2 = tmp_path / "d_out"
        shutil.copytree(d, d2)
        assert cli.main(
            ["closeloops", "--dataset", str(d2), "--config", cfg, "--outliers", "1"]
        ) == 0
        prior = dataio.read_trajectory(d2 / "prior.csv")
        clean = dataio.read_loop_closures(d / "loopclosures.csv", prior.times)
        dirty = dataio.read_loop_closures(d2 / "loopclosures.csv", prior.times)
        different = sum(
            not np.allclose(a.xi_meas, b.xi_meas) for a, b in zip(clean, dirty)
        )
        assert different == 1


class TestSmooth:
    def test_smooth_and_report(self, dataset):
        d, cfg = dataset
        assert cli.main(["smooth", "--dataset", str(d), "--config", cfg]) == 0
        assert (d / "posterior.csv").exists()
        report = json.loads((d / "smooth_report.json").read_text())
        assert report["converged"]
        assert report["loop_closures"] == 2
        trace = report["objective_trace"]
        assert len(trace) >= 2
        # one (before, after) pair per accepted step, never increasing
        steps = report["step_objectives"]
        assert len(steps) == report["iterations"] >= 1
        for before, after in steps:
            assert after <= before * (1 + 1e-12) + 1e-15
        assert report["damping_final"] >= 0.0

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

    def test_closure_time_in_sampling_gap_inserts_node(self, dataset, tmp_path):
        # on a uniform grid every time resolves to a node, so insertion only
        # triggers when the trajectory has a dropout around the closure time
        import shutil

        d, cfg = dataset
        d2 = tmp_path / "d_interp"
        shutil.copytree(d, d2)
        prior = dataio.read_trajectory(d2 / "prior.csv")
        lines = (d2 / "loopclosures.csv").read_text().splitlines()
        t1 = float(lines[1].split(",")[0])
        keep = np.abs(prior.times - t1) > 0.25
        pruned = Trajectory(times=prior.times[keep], poses=prior.poses[keep])
        dataio.write_trajectory(d2 / "prior.csv", pruned)
        assert cli.main(["smooth", "--dataset", str(d2), "--config", cfg]) == 0
        posterior = dataio.read_trajectory(d2 / "posterior.csv")
        assert len(posterior) == len(pruned) + 1
        assert np.any(np.isclose(posterior.times, t1))

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
        times, poses, closures = flipped_closure_line(orthonormal=True)
        dataio.write_trajectory(tmp_path / "prior.csv", Trajectory(times, poses))
        dataio.write_loop_closures(tmp_path / "loopclosures.csv", closures, times)
        lines = (tmp_path / "prior.csv").read_text().splitlines()
        fields = lines[7].split(",")
        fields[1] = "nan"
        lines[7] = ",".join(fields)
        (tmp_path / "prior.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["smooth", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{tmp_path / 'prior.csv'}: data row 7" in err
        assert not (tmp_path / "posterior.csv").exists()
        assert not (tmp_path / "smooth_report.json").exists()

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
