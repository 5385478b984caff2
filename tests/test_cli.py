"""End-to-end checks for the ``sarsep`` command-line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    NON_FINITE_KINDS,
    flat_scene,
    near_scene,
    near_traj,
    non_finite_image,
)

from sarsep import cli
from sarsep import io as sario
from sarsep.annihil import locate_stationary
from sarsep.cli import main
from sarsep.geom import compose_velocity, make_frame
from sarsep.motion import VelocityEstimate
from sarsep.presets import list_presets, preset_scene
from sarsep.ranklab import rank_study
from sarsep.rpca import WindowLayout
from sarsep.scene import Target, simulate

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*outside the fast-time gate and contributed zero.*:RuntimeWarning",
)


def mixed_scene():
    """Four stationary points on the range axis plus one range mover.

    Stationary targets sit at zero cross-range so none of them alias
    into an apparent range speed; the mover at the reference point has
    a pure range speed of 3 m/s.
    """
    frame = make_frame(near_traj(), np.zeros(3))
    mover_vel = compose_velocity(frame, 3.0, 0.0)
    return near_scene(
        [
            Target(rho=(-3.0, 0.0, 0.0), amplitude=1.0),
            Target(rho=(-1.0, 0.0, 0.0), amplitude=0.8),
            Target(rho=(2.0, 0.0, 0.0), amplitude=1.5),
            Target(rho=(3.5, 0.0, 0.0), amplitude=0.9),
            Target(rho=(0.0, 0.0, 0.0), velocity=tuple(mover_vel), amplitude=2.0),
        ]
    )


def single_scene_config(path):
    """Write a one-target scene JSON and return its path.

    The target sits 2 m nearer than the reference point, and the gate
    covers only its delays (about -23.1 to -3.5 ns), not the
    differential delay 0 where straightening puts the echo.  So
    annihilation straightening shifts rows by 1.334e-08 s on a
    1.967e-08 s gate (68%) and wraps the echo around the gate.  That is
    exact: the circular shift and its negation are inverses and the
    slow-time difference commutes with them, so annihilation at any
    reference, exact or offset, equals its result on a gate too wide
    to wrap.
    """
    scene = flat_scene([(2.0, 0.0, 0.0)], n=32)
    path.write_text(json.dumps({"scene": sario.scene_to_dict(scene)}, indent=2))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def scene_config(workdir):
    path = workdir / "scene.json"
    path.write_text(
        json.dumps({"scene": sario.scene_to_dict(mixed_scene())}, indent=2)
    )
    return path


@pytest.fixture(scope="module")
def mixture(workdir, scene_config):
    out = workdir / "mixture.trc"
    rc = main(
        [
            "simulate",
            "--config",
            str(scene_config),
            "--out",
            str(out),
            "--split",
            "--out-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    return out


class TestSimulate:
    def test_split_writes_mixture_and_ground_truth_parts(self, workdir, mixture):
        stationary = sario.read_trace(workdir / "mixture.stationary.trc")
        moving = sario.read_trace(workdir / "mixture.moving.trc")
        total = sario.read_trace(mixture)
        scale = np.abs(total.data).max()
        assert np.allclose(
            total.data, stationary.data + moving.data, atol=1.0e-12 * scale
        )
        assert total.meta["targets"] == 5
        assert total.meta["movers"] == 1
        assert stationary.meta["movers"] == 0
        for name in ("mixture.trc.json", "mixture.stationary.trc.json"):
            assert (workdir / name).exists()

    def test_preset_by_name(self, tmp_path):
        out = tmp_path / "single.trc"
        rc = main(
            [
                "simulate",
                "--preset",
                "single",
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        trace = sario.read_trace(out)
        assert trace.aperture.n == 116
        assert trace.meta["targets"] == 1

    def test_there_is_no_seed_option(self, tmp_path):
        # The simulation draws no random numbers, so nothing takes a seed.
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["simulate", "--preset", "single", "--seed", "1", "--out-dir", str(tmp_path)]
            )
        assert exit_info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_non_finite_carrier_is_a_usage_error(self, tmp_path, capsys):
        # JSON's NaN literal reaches Radar through scene_from_dict.
        spec = {"scene": sario.scene_to_dict(flat_scene([]))}
        spec["scene"]["radar"]["nu0_hz"] = float("nan")
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "nan.trc"
        rc = main(
            [
                "simulate",
                "--config",
                str(config),
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "nu0" in capsys.readouterr().err
        assert not out.exists()


class TestCompress:
    def test_expand_then_compress_round_trips(self, mixture, tmp_path):
        raw = tmp_path / "raw.trc"
        back = tmp_path / "back.trc"
        rc = main(
            [
                "compress",
                str(mixture),
                "--out",
                str(raw),
                "--inverse",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert sario.read_trace(raw).tag == "raw"
        rc = main(
            ["compress", str(raw), "--out", str(back), "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        original = sario.read_trace(mixture)
        returned = sario.read_trace(back)
        assert returned.tag == "range-compressed"
        # Expansion widens the gate and re-compression keeps that width,
        # so the original rows come back as a centered sub-window.
        assert returned.axis.t_center == pytest.approx(
            original.axis.t_center, abs=1.0e-15
        )
        offset = (returned.axis.m - original.axis.m) // 2
        window = returned.data[:, offset : offset + original.axis.m + 1]
        scale = np.abs(original.data).max()
        assert np.allclose(window, original.data, atol=1.0e-8 * scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAnnihilate:
    def test_exact_reference_point_cancels_the_trace(self, tmp_path):
        config = single_scene_config(tmp_path / "one.json")
        trace_path = tmp_path / "one.trc"
        rc = main(
            [
                "simulate",
                "--config",
                str(config),
                "--out",
                str(trace_path),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"stages": [{"rho_e_meters": [2.0, 0.0, 0.0]}]})
        )
        out = tmp_path / "residual.trc"
        report = tmp_path / "report.json"
        rc = main(
            [
                "annihilate",
                str(trace_path),
                str(out),
                "--plan",
                str(plan_path),
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads(report.read_text())
        assert summary["stages"] == 1
        assert summary["residual_db"] <= -60.0
        result = sario.read_trace(out)
        assert result.tag == "range-compressed"
        # One first-order stage drops the last row.
        assert summary["valid_rows"] == [0, result.n] == list(result.valid_rows)
        assert 0.0 < summary["seconds"] < 60.0

    def test_empty_plan_is_a_usage_error(self, mixture, tmp_path):
        plan_path = tmp_path / "empty.json"
        plan_path.write_text(json.dumps({"stages": []}))
        rc = main(
            [
                "annihilate",
                str(mixture),
                str(tmp_path / "never.trc"),
                "--plan",
                str(plan_path),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2


class TestRpca:
    def test_windowed_split_writes_both_parts(self, mixture, tmp_path):
        low = tmp_path / "low.trc"
        sparse = tmp_path / "sparse.trc"
        report = tmp_path / "rpca.json"
        rc = main(
            [
                "rpca",
                str(mixture),
                "--window-len",
                "32",
                "--overlap",
                "4",
                "--out-low",
                str(low),
                "--out-sparse",
                str(sparse),
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        total = sario.read_trace(mixture)
        low_part = sario.read_trace(low)
        sparse_part = sario.read_trace(sparse)
        assert low_part.tag == "filtered"
        scale = np.abs(total.data).max()
        assert np.allclose(
            low_part.data + sparse_part.data, total.data, atol=1.0e-5 * scale
        )
        summary = json.loads(report.read_text())
        assert summary["window_length"] == 32
        assert summary["window_overlap"] == 4
        assert summary["feasibility"] <= 1.0e-6
        spans = WindowLayout(length=32, overlap=4).spans(total.data.shape[1])
        assert len(summary["windows"]) == len(spans)

    def test_far_range_points_are_removed_before_the_split(self, tmp_path):
        points = np.array([[1.0, 0.0, 0.0], [-2.0, 3.0, 0.0]])
        u_vec = compose_velocity(make_frame(flat_scene([]).traj, np.zeros(3)), 3.0, 0.0)
        mover = Target(rho=np.zeros(3), velocity=tuple(u_vec), amplitude=2.0)
        trace = sario.write_trace(
            tmp_path / "far.trc", simulate(flat_scene([*points, mover], n=64))
        )
        low, sparse, report = (tmp_path / n for n in ("low.trc", "sparse.trc", "r.json"))
        rc = main(
            [
                "rpca",
                str(trace),
                "--out-low",
                str(low),
                "--out-sparse",
                str(sparse),
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads(report.read_text())
        found = np.array(summary["stationary_points_meters"])
        assert found.shape == (2, 3)
        miss = np.linalg.norm(found[:, None, :] - points[None], axis=-1).min(axis=0)
        assert np.all(miss <= 0.05), miss
        located = locate_stationary(sario.read_trace(trace))
        assert summary["stationary_candidates"] == len(located) >= 2
        total = sario.read_trace(trace).data
        parts = sario.read_trace(low).data + sario.read_trace(sparse).data
        np.testing.assert_allclose(parts, total, atol=1.0e-6 * np.abs(total).max())
        # A filtered trace is split without a removal.
        again = tmp_path / "again"
        rc = main(
            [
                "rpca",
                str(low),
                "--out-low",
                str(again / "low.trc"),
                "--out-sparse",
                str(again / "sparse.trc"),
                "--report",
                str(report),
                "--out-dir",
                str(again),
            ]
        )
        assert rc == 0
        assert json.loads(report.read_text())["stationary_candidates"] == 0


    @pytest.mark.parametrize(
        "options",
        [
            ["--overlap", "4"],
            ["--max-iter", "0"],
            ["--eta", "-1"],
            ["--tol", "-1"],
            ["--tol", "nan"],
        ],
        ids=[
            "overlap-without-window-len",
            "max-iter-0",
            "negative-eta",
            "negative-tol",
            "nan-tol",
        ],
    )
    def test_invalid_settings_are_usage_errors(self, mixture, tmp_path, options):
        low, sparse = tmp_path / "low.trc", tmp_path / "sparse.trc"
        rc = main(
            [
                "rpca",
                str(mixture),
                *options,
                "--out-low",
                str(low),
                "--out-sparse",
                str(sparse),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestEstimateMotion:
    def test_report_recovers_the_mover(self, mixture, tmp_path):
        report = tmp_path / "motion.json"
        rc = main(
            [
                "estimate-motion",
                str(mixture),
                "--u-grid",
                "0.5:0.25:6",
                "--u-perp-grid=-2:0.5:2",
                "--height-factor",
                "1.5",
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads(report.read_text())
        assert summary["peaks"]
        assert "g_median" in summary
        estimate = summary["estimates"][0]
        assert estimate["u_meters_per_second"] == pytest.approx(3.0, abs=0.25)
        assert abs(estimate["u_perp_meters_per_second"]) <= 1.0
        rho = np.asarray(estimate["rho_meters"])
        assert np.linalg.norm(rho[:2]) <= 0.5

    def test_given_location_is_kept(self, mixture, tmp_path):
        report = tmp_path / "motion.json"
        rc = main(
            [
                "estimate-motion",
                str(mixture),
                "--rho-e=0.3,-0.2",
                "--u-grid",
                "0.5:0.25:6",
                "--u-perp-grid=-2:0.5:2",
                "--height-factor",
                "1.5",
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        estimates = json.loads(report.read_text())["estimates"]
        assert estimates
        frame = make_frame(near_traj(), np.zeros(3))
        keys = VelocityEstimate(
            u=0.0, u_perp=0.0, rho=np.zeros(3), g_score=0.0, frame=frame
        ).to_dict().keys()
        for estimate in estimates:
            assert estimate.keys() == keys
            assert estimate["rho_meters"] == [0.3, -0.2, 0.0]
        assert estimates[0]["u_meters_per_second"] == pytest.approx(3.0, abs=0.25)


    def test_a_negative_mover_count_is_a_usage_error(self, mixture, tmp_path):
        report = tmp_path / "motion.json"
        rc = main(
            [
                "estimate-motion",
                str(mixture),
                "--max-movers",
                "-1",
                "--report",
                str(report),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "option",
        [
            "--u-grid=nope",
            "--u-grid=-2:0:2",
            "--rho-e=1.0",
            "--rho-e=1,2,3,4",
        ],
        ids=[
            "malformed-u-grid", "zero-step", "one-component-rho", "four-component-rho"
        ],
    )
    def test_malformed_speeds_and_locations_are_usage_errors(
        self, mixture, tmp_path, option
    ):
        rc = main(
            [
                "estimate-motion",
                str(mixture),
                option,
                "--report",
                str(tmp_path / "motion.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestSeparateMovers:
    def test_pipeline_outputs_and_reconstruction(self, mixture, tmp_path):
        prefix = tmp_path / "sep"
        rc = main(
            [
                "separate-movers",
                str(mixture),
                "--max-movers",
                "1",
                "--prefix",
                str(prefix),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        low = sario.read_trace(tmp_path / "sep.low.trc")
        mover = sario.read_trace(tmp_path / "sep.mover1.trc")
        residual = sario.read_trace(tmp_path / "sep.residual.trc")
        total = sario.read_trace(mixture)
        scale = np.abs(total.data).max()
        recombined = low.data + mover.data + residual.data
        assert np.allclose(recombined, total.data, atol=1.0e-4 * scale)
        estimates = json.loads((tmp_path / "sep.estimates.json").read_text())
        assert len(estimates) == 1
        assert estimates[0]["u_meters_per_second"] == pytest.approx(3.0, abs=0.5)


    def test_a_negative_mover_count_is_a_usage_error(self, mixture, tmp_path):
        rc = main(
            [
                "separate-movers",
                str(mixture),
                "--max-movers",
                "-1",
                "--prefix",
                str(tmp_path / "sep"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestImage:
    def test_backprojection_peak_and_pgm(self, workdir, mixture, tmp_path):
        out = tmp_path / "img.bin"
        pgm = tmp_path / "img.pgm"
        rc = main(
            [
                "image",
                str(workdir / "mixture.stationary.trc"),
                "--grid",
                "12x8:0.25",
                "--center",
                "0,0",
                "--out",
                str(out),
                "--pgm",
                str(pgm),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        envelope, meta = sario.read_image(out)
        x_axis = np.linspace(
            meta["x_axis_meters"][0], meta["x_axis_meters"][1], envelope.shape[1]
        )
        y_axis = np.linspace(
            meta["y_axis_meters"][0], meta["y_axis_meters"][1], envelope.shape[0]
        )
        iy, ix = np.unravel_index(np.argmax(envelope), envelope.shape)
        assert x_axis[ix] == pytest.approx(2.0, abs=0.25)
        assert y_axis[iy] == pytest.approx(0.0, abs=0.25)
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_malformed_grid_is_a_usage_error(self, mixture, tmp_path):
        rc = main(
            [
                "image",
                str(mixture),
                "--grid",
                "nope",
                "--out",
                str(tmp_path / "img.bin"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_a_non_finite_grid_is_a_usage_error(self, mixture, tmp_path):
        rc = main(
            [
                "image",
                str(mixture),
                "--grid",
                "infx10:0.24",
                "--out",
                str(tmp_path / "img.bin"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestRank:
    def test_explicit_values_write_a_csv(self, tmp_path):
        out = tmp_path / "ranks.csv"
        rc = main(
            [
                "rank",
                "--mode",
                "single-stationary",
                "--values",
                "0.5,4",
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(r["parameter"]) for r in rows] == [0.5, 4.0]
        assert [int(r["computed_rank"]) for r in rows] == [2, 2]
        assert set(rows[0]) == {
            "parameter",
            "computed_rank",
            "estimated_rank",
            "n",
            "epsilon",
        }

    def test_two_target_sweep_matches_the_library(self, tmp_path):
        out = tmp_path / "pair.csv"
        rc = main(
            [
                "rank",
                "--mode",
                "two-target",
                "--sweep=-4:4:4",
                "--first-target",
                "3,2",
                "--second-x=-3",
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        expected = rank_study(
            "two-target", [-4.0, 0.0, 4.0], first_target=(3.0, 2.0, 0.0), second_x=-3.0
        )
        assert rows == [{k: str(v) for k, v in row.items()} for row in expected]

    @pytest.mark.parametrize("epsilon", ["0", "1", "1.5"])
    def test_epsilon_outside_the_unit_interval_is_a_usage_error(
        self, tmp_path, epsilon
    ):
        out = tmp_path / "ranks.csv"
        rc = main(
            [
                "rank",
                "--mode",
                "single-mover",
                "--values",
                "1",
                f"--epsilon={epsilon}",
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


    def test_a_sweep_or_values_is_required(self, tmp_path):
        out = tmp_path / "ranks.csv"
        rc = main(
            [
                "rank",
                "--mode",
                "single-mover",
                "--out",
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_configured_pipeline_end_to_end(self, tmp_path):
        out_dir = tmp_path / "run"
        config = tmp_path / "pipeline.json"
        config.write_text(
            json.dumps(
                {
                    "scene": sario.scene_to_dict(mixed_scene()),
                    "max_movers": 1,
                    "imaging": {"grid": "12x8:0.5", "center": [0.0, 0.0, 0.0]},
                }
            )
        )
        rc = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert rc == 0
        for name in (
            "mixture.trc",
            "stationary.trc",
            "mover1.trc",
            "residual.trc",
            "estimates.json",
            "g_curve.csv",
            "mover1_focused.bin",
            "mover1_focused.pgm",
            "mover1_unfocused.bin",
            "mover1_unfocused.pgm",
            "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        estimates = json.loads((out_dir / "estimates.json").read_text())
        assert estimates[0]["u_meters_per_second"] == pytest.approx(3.0, abs=0.5)
        with open(out_dir / "g_curve.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["u_meters_per_second", "g"]
        focused, meta = sario.read_image(out_dir / "mover1_focused.bin")
        unfocused, _ = sario.read_image(out_dir / "mover1_unfocused.bin")
        assert focused.max() > 1.5 * unfocused.max()
        # The same sidecar as `sarsep image` writes.
        assert meta["x_axis_meters"] == [-6.0, 6.0]
        assert meta["y_axis_meters"] == [-4.0, 4.0]


    def test_zero_movers_writes_no_g_curve_and_a_manifest_of_existing_files(
        self, tmp_path
    ):
        out_dir = tmp_path / "run"
        config = tmp_path / "pipeline.json"
        config.write_text(
            json.dumps({"scene": sario.scene_to_dict(mixed_scene()), "max_movers": 0})
        )
        rc = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert rc == 0
        assert not (out_dir / "g_curve.csv").exists()
        assert json.loads((out_dir / "estimates.json").read_text()) == []
        (entry,) = json.loads((out_dir / "manifest.json").read_text())
        listed = {Path(item["path"]).name for item in entry["outputs"]}
        assert {"mixture.trc", "stationary.trc", "residual.trc"} <= listed
        assert "g_curve.csv" not in listed
        assert all(Path(item["path"]).exists() for item in entry["outputs"])

    def test_a_negative_mover_count_is_a_usage_error(self, tmp_path):
        config = tmp_path / "pipeline.json"
        config.write_text(
            json.dumps({"scene": sario.scene_to_dict(mixed_scene()), "max_movers": -1})
        )
        out_dir = tmp_path / "run"
        rc = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()


    @pytest.mark.parametrize(
        "config, message",
        [
            ({"scene": "single", "max_mover": 0}, "run config keys ['max_mover']"),
            ({"scene": "single", "seed": 0}, "run config keys ['seed']"),
            (
                {"scene": "single", "imaging": {"centre": [0.0, 0.0, 0.0]}},
                "imaging keys ['centre']",
            ),
            ({"scene": "single", "imaging": "60x60:0.24"}, "imaging must be"),
            ([{"scene": "single"}], "run config must be"),
        ],
    )
    def test_unknown_keys_and_non_objects_are_usage_errors(
        self, tmp_path, capsys, config, message
    ):
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        rc = main(["run", "--config", str(path), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()
        assert message in capsys.readouterr().err

    def test_a_preset_name_is_a_scene(self, tmp_path):
        out_dir = tmp_path / "run"
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"scene": "example1", "max_movers": 0}))
        rc = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert rc == 0
        mixture = sario.read_trace(out_dir / "mixture.trc")
        expected = simulate(preset_scene("example1"))
        np.testing.assert_array_equal(mixture.data, expected.data)

    def test_an_unknown_preset_is_a_usage_error_naming_the_presets(
        self, tmp_path, capsys
    ):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"scene": "scene9"}))
        out_dir = tmp_path / "run"
        rc = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert "unknown preset 'scene9'" in err
        assert all(name in err for name in list_presets())


class TestExport:
    def test_g_curve_csv(self, mixture, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(
            [
                "export",
                "--kind",
                "g-curve",
                str(mixture),
                str(out),
                "--u-grid",
                "0:0.5:4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["u_meters_per_second", "g"]
        assert len(rows) == 1 + 9

    def test_trace_and_image_pgm(self, mixture, tmp_path):
        trace_pgm = tmp_path / "trace.pgm"
        rc = main(
            [
                "export",
                "--kind",
                "trace-pgm",
                str(mixture),
                str(trace_pgm),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert trace_pgm.read_bytes().startswith(b"P5\n")
        img = tmp_path / "img.bin"
        rc = main(
            [
                "image",
                str(mixture),
                "--grid",
                "4x4:0.5",
                "--out",
                str(img),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        image_pgm = tmp_path / "image.pgm"
        rc = main(
            [
                "export",
                "--kind",
                "image-pgm",
                str(img),
                str(image_pgm),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert image_pgm.read_bytes().startswith(b"P5\n")

    @pytest.mark.parametrize("kind", NON_FINITE_KINDS)
    def test_a_non_finite_image_is_a_usage_error(self, tmp_path, capsys, kind):
        img = sario.write_image(tmp_path / "img.bin", non_finite_image(kind), {})
        out = tmp_path / "out.pgm"
        rc = main(
            [
                "export",
                "--kind",
                "image-pgm",
                str(img),
                str(out),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "img.bin holds non-finite samples" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_is_rejected_by_the_parser(self, mixture, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "export",
                    "--kind",
                    "hologram",
                    str(mixture),
                    str(tmp_path / "x"),
                ]
            )


class TestManifestAndErrors:
    def test_manifest_accumulates_hashed_entries(self, tmp_path):
        for values in ("0.5", "4"):
            rc = main(
                [
                    "rank",
                    "--mode",
                    "single-stationary",
                    "--values",
                    values,
                    "--out",
                    str(tmp_path / f"r{values}.csv"),
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            assert rc == 0
        entries = json.loads((tmp_path / "manifest.json").read_text())
        assert len(entries) == 2
        entry = entries[0]
        assert entry["command"] == "rank"
        assert entry["arguments"]["mode"] == "single-stationary"
        assert entry["wall_time_seconds"] >= 0.0
        recomputed = hashlib.sha256(
            json.dumps(entry["arguments"], sort_keys=True).encode()
        ).hexdigest()
        assert entry["parameters_hash"] == recomputed
        output = entry["outputs"][0]
        assert (
            hashlib.sha256(Path(output["path"]).read_bytes()).hexdigest()
            == output["sha256"]
        )

    @staticmethod
    def rank_args(tmp_path):
        return [
            "rank",
            "--mode",
            "single-stationary",
            "--values",
            "0.5",
            "--out",
            str(tmp_path / "r.csv"),
            "--out-dir",
            str(tmp_path),
        ]

    def test_a_manifest_that_is_not_a_list_is_started_afresh(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"command": "rank"}')
        assert main(self.rank_args(tmp_path)) == 0
        entries = json.loads((tmp_path / "manifest.json").read_text())
        assert [entry["command"] for entry in entries] == ["rank"]

    def test_a_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(cli, "rank_study", fail)
        assert main(self.rank_args(tmp_path)) == 3
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("key", ["nu0", "bandwidth"])
    def test_a_trace_without_its_band_is_a_usage_error(self, mixture, tmp_path, key):
        trace = tmp_path / "bare.trc"
        trace.write_bytes(mixture.read_bytes())
        sidecar = json.loads(Path(f"{mixture}.json").read_text())
        del sidecar["meta"][key]
        Path(f"{trace}.json").write_text(json.dumps(sidecar))
        out = tmp_path / "out"
        rc = main(
            ["compress", str(trace), "--out", str(out / "x.trc"), "--out-dir", str(out)]
        )
        assert rc == 2
        assert not out.exists()

    def test_missing_input_maps_to_io_exit(self, tmp_path):
        rc = main(
            [
                "compress",
                str(tmp_path / "absent.trc"),
                "--out",
                str(tmp_path / "x.trc"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 4

    def test_malformed_config_maps_to_io_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["run", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 4


#: Run in a child process with every scipy import made to fail: the
#: pipeline and the commands that remove stationary echoes.
NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from sarsep import annihil, motion
from sarsep import cli
from sarsep import io as sario
from sarsep.annihil import locate_stationary
from sarsep.cli import main
trace, out = sario.read_trace(sys.argv[1]), sys.argv[2]
assert len(annihil.locate_stationary(trace, extent=12.0))
motion.separate_movers(trace, max_movers=1, extent=12.0)
assert main(["rpca", sys.argv[1], "--out-low", out + "/low.trc",
             "--out-sparse", out + "/sparse.trc", "--report", out + "/rpca.json",
             "--out-dir", out]) == 0
assert json.load(open(out + "/rpca.json"))["stationary_points_meters"]
assert main(["separate-movers", sys.argv[1], "--max-movers", "1",
             "--prefix", out + "/sep", "--out-dir", out]) == 0
"""


def test_stationary_removal_runs_without_scipy(tmp_path):
    """The located point at (1, 0, 0) m is refined along cross-range in
    each run, so the refinement's search runs on numpy alone."""
    trace = tmp_path / "point.trc"
    sario.write_trace(trace, simulate(flat_scene([(1.0, 0.0, 0.0)], n=64)))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(trace), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
