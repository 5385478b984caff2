"""Serialization: .trc traces, scene JSON, raw images, PGM rendering."""

import json

import numpy as np
import pytest
from conftest import NON_FINITE_KINDS, non_finite_image

from sarsep.geom import CircularTrajectory
from sarsep.io import (
    read_image,
    read_trace,
    scene_from_dict,
    scene_to_dict,
    target_from_dict,
    target_to_dict,
    trajectory_from_dict,
    trajectory_to_dict,
    write_image,
    write_pgm,
    write_trace,
)
from sarsep.presets import preset_scene
from sarsep.scene import SceneSpec, Target, simulate


@pytest.fixture()
def circular_trace():
    traj = CircularTrajectory(
        center=np.zeros(2), radius=7100.0, height=7300.0,
        angular_rate=70.0 / 7100.0, origin_angle=0.3,
    )
    scene = preset_scene("single")
    scene = SceneSpec(
        traj=traj, rho_o=scene.rho_o, targets=scene.targets,
        aperture=type(scene.aperture)(n=4, ds=0.015), radar=scene.radar,
    )
    trace = simulate(scene)
    return trace.replace(valid_rows=(1, 4))


class TestDictConverters:
    def test_linear_trajectory_round_trip(self, flat_scene_builder):
        traj = flat_scene_builder([]).traj
        spec = trajectory_to_dict(traj)
        assert spec["kind"] == "linear"
        again = trajectory_from_dict(spec)
        np.testing.assert_array_equal(again.center, traj.center)
        np.testing.assert_array_equal(again.tangent, traj.tangent)
        assert again.speed == traj.speed

    def test_circular_trajectory_round_trip(self, circular_trace):
        traj = circular_trace.traj
        spec = trajectory_to_dict(traj)
        assert spec["kind"] == "circular"
        again = trajectory_from_dict(spec)
        np.testing.assert_array_equal(again.center, traj.center)
        assert again.radius == traj.radius
        assert again.height == traj.height
        assert again.angular_rate == traj.angular_rate
        assert again.origin_angle == traj.origin_angle

    def test_unsupported_trajectory_types(self):
        with pytest.raises(TypeError, match="unsupported trajectory"):
            trajectory_to_dict(object())
        with pytest.raises(ValueError, match="unknown trajectory kind"):
            trajectory_from_dict({"kind": "spline"})

    def test_target_round_trip_and_defaults(self):
        target = Target(
            rho=np.array([1.0, -2.0, 0.0]), velocity=(0.5, 0.25, 0.0),
            amplitude=1.5,
        )
        again = target_from_dict(target_to_dict(target))
        np.testing.assert_array_equal(again.rho, target.rho)
        np.testing.assert_array_equal(again.velocity, target.velocity)
        assert again.amplitude == 1.5
        bare = target_from_dict({"rho_meters": [0.0, 1.0, 0.0]})
        assert not bare.moving and bare.amplitude == 1.0

    def test_scene_round_trip_on_a_preset(self):
        scene = preset_scene("example2")
        spec = scene_to_dict(scene)
        again = scene_from_dict(json.loads(json.dumps(spec)))
        assert len(again.targets) == len(scene.targets)
        assert again.aperture == scene.aperture
        assert again.radar.nu0 == scene.radar.nu0
        assert again.radar.dt == scene.radar.dt
        np.testing.assert_array_equal(again.rho_o, scene.rho_o)
        movers = [t for t in again.targets if t.moving]
        assert len(movers) == 1
        np.testing.assert_array_equal(
            movers[0].velocity, [t for t in scene.targets if t.moving][0].velocity
        )


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda spec: [spec], "scene must be a JSON object"),
            (lambda spec: {**spec, "radar": [1]}, "radar must be a JSON object"),
            (lambda spec: {**spec, "aperture": 116}, "aperture must be a JSON object"),
            (lambda spec: {**spec, "trajectory": "linear"}, "trajectory must be"),
            (lambda spec: {**spec, "targets": [[0, 0, 0]]}, "targets must be"),
            (lambda spec: {**spec, "targets": "abc"}, "targets must be"),
            (lambda spec: {**spec, "radar": {"dt_seconds": "x"}}, "dt must be a number"),
            (
                lambda spec: {**spec, "aperture": {**spec["aperture"], "n": 10.5}},
                "aperture n must be a whole number",
            ),
            (
                lambda spec: {**spec, "aperture": {**spec["aperture"], "n": True}},
                "aperture n must be a whole number",
            ),
        ],
        ids=[
            "list", "radar-list", "aperture-number", "trajectory-string",
            "target-list", "target-string", "string-dt", "fractional-n", "bool-n",
        ],
    )
    def test_a_malformed_scene_is_rejected_naming_the_field(self, edit, message):
        spec = json.loads(json.dumps(scene_to_dict(preset_scene("single"))))
        with pytest.raises(ValueError, match=message):
            scene_from_dict(edit(spec))

    def test_a_whole_float_pulse_count_reads_as_an_int(self):
        spec = scene_to_dict(preset_scene("single"))
        spec["aperture"]["n"] = 116.0
        aperture = scene_from_dict(spec).aperture
        assert aperture.n == 116 and isinstance(aperture.n, int)


class TestTraceFiles:
    def test_round_trip_preserves_everything(self, tmp_path, circular_trace):
        path = write_trace(tmp_path / "echo", circular_trace)
        assert path.name == "echo.trc"
        assert path.with_name("echo.trc.json").exists()
        again = read_trace(path)
        np.testing.assert_array_equal(again.data, circular_trace.data)
        assert again.aperture == circular_trace.aperture
        assert again.axis == circular_trace.axis
        assert again.tag == circular_trace.tag
        assert again.valid_rows == circular_trace.valid_rows
        np.testing.assert_array_equal(again.rho_o, circular_trace.rho_o)
        assert again.meta == circular_trace.meta
        assert (again.nu0, again.bandwidth) == (
            circular_trace.nu0,
            circular_trace.bandwidth,
        )
        assert again.traj.origin_angle == 0.3

    def test_rewrites_are_byte_identical(self, tmp_path, circular_trace):
        first = write_trace(tmp_path / "a", circular_trace)
        second = write_trace(tmp_path / "b", read_trace(first))
        assert first.read_bytes() == second.read_bytes()
        assert (
            first.with_name("a.trc.json").read_bytes()
            == second.with_name("b.trc.json").read_bytes()
        )

    def test_numpy_meta_values_round_trip_as_json(self, tmp_path, circular_trace):
        meta = {**circular_trace.meta, "scale": np.float32(2.5), "rows": np.arange(3)}
        path = write_trace(tmp_path / "echo", circular_trace.replace(meta=meta))
        again = read_trace(path).meta
        assert again["scale"] == 2.5 and type(again["scale"]) is float
        assert again["rows"] == [0, 1, 2]

    def test_the_band_is_written_into_the_sidecar_meta(self, tmp_path, circular_trace):
        path = write_trace(tmp_path / "echo", circular_trace)
        sidecar = json.loads(path.with_name("echo.trc.json").read_text())
        assert sidecar["meta"] == {
            **circular_trace.meta,
            "nu0": circular_trace.nu0,
            "bandwidth": circular_trace.bandwidth,
        }

    @pytest.mark.parametrize("key", ["nu0", "bandwidth"])
    @pytest.mark.parametrize("value", ["absent", None])
    def test_a_sidecar_without_the_band_is_rejected(
        self, tmp_path, circular_trace, key, value
    ):
        path = write_trace(tmp_path / "echo", circular_trace)
        sidecar_path = path.with_name("echo.trc.json")
        sidecar = json.loads(sidecar_path.read_text())
        if value == "absent":
            del sidecar["meta"][key]
        else:
            sidecar["meta"][key] = value
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=f"records no {key}"):
            read_trace(path)

    def test_a_sidecar_with_a_seed_still_loads(self, tmp_path, circular_trace):
        # Sidecars once recorded a "seed" key; the reader ignores it.
        path = write_trace(tmp_path / "echo", circular_trace)
        sidecar_path = path.with_name("echo.trc.json")
        sidecar = json.loads(sidecar_path.read_text())
        assert "seed" not in sidecar
        sidecar_path.write_text(json.dumps({**sidecar, "seed": 3}))
        np.testing.assert_array_equal(read_trace(path).data, circular_trace.data)

    def test_truncated_payload_is_detected(self, tmp_path, circular_trace):
        path = write_trace(tmp_path / "echo", circular_trace)
        payload = path.read_bytes()
        path.write_bytes(payload[:-16])
        with pytest.raises(ValueError, match="samples, expected"):
            read_trace(path)


class TestImageFiles:
    def test_round_trip_with_header(self, tmp_path):
        rng = np.random.default_rng(0)
        envelope = rng.random((5, 7))
        header = {"provenance": "uncompensated", "spacing_meters": 0.24}
        path = write_image(tmp_path / "img.bin", envelope, header)
        data, sidecar = read_image(path)
        np.testing.assert_array_equal(data, envelope)
        assert sidecar["shape"] == [5, 7]
        assert sidecar["provenance"] == "uncompensated"
        assert sidecar["spacing_meters"] == 0.24

    def test_truncated_payload_is_detected(self, tmp_path):
        path = write_image(tmp_path / "img.bin", np.ones((3, 5)), {})
        path.write_bytes(path.read_bytes()[:80])
        with pytest.raises(ValueError, match=r"img\.bin holds 10 samples, expected 15"):
            read_image(path)

    @pytest.mark.parametrize("kind", NON_FINITE_KINDS)
    def test_non_finite_samples_are_rejected(self, tmp_path, kind):
        path = write_image(tmp_path / "img.bin", non_finite_image(kind), {})
        with pytest.raises(ValueError, match=r"img\.bin holds non-finite samples"):
            read_image(path)


class TestPgm:
    def test_header_and_pixel_values(self, tmp_path):
        magnitudes = np.array([[1.0, 0.5, 0.0], [0.25, 1.0e-6, 0.01]])
        path = write_pgm(tmp_path / "img.pgm", magnitudes)
        blob = path.read_bytes()
        header = b"P5\n3 2\n65535\n"
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 3)
        assert pixels[0, 0] == 65535
        assert pixels[0, 2] == 0
        assert pixels[1, 1] == 0
        db = 20.0 * np.log10(0.5)
        expected = round((db + 60.0) / 60.0 * 65535.0)
        assert pixels[0, 1] == expected

    def test_all_zero_input_renders_black(self, tmp_path):
        path = write_pgm(tmp_path / "dark.pgm", np.zeros((2, 2)))
        blob = path.read_bytes()
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert np.all(pixels == 0)

    @pytest.mark.parametrize("kind", NON_FINITE_KINDS)
    def test_non_finite_magnitudes_are_rejected(self, tmp_path, kind):
        with pytest.raises(ValueError, match="non-finite"):
            write_pgm(tmp_path / "img.pgm", non_finite_image(kind))
        assert not (tmp_path / "img.pgm").exists()

    @pytest.mark.parametrize("floor_db", [0.0, 10.0, np.nan, -np.inf])
    def test_a_floor_that_is_not_finite_and_negative_is_rejected(
        self, tmp_path, floor_db
    ):
        with pytest.raises(ValueError, match="floor_db must be finite and negative"):
            write_pgm(tmp_path / "img.pgm", np.ones((2, 2)), floor_db=floor_db)
        assert list(tmp_path.iterdir()) == []

    def test_floor_controls_the_dynamic_range(self, tmp_path):
        magnitudes = np.array([[1.0, 0.1]])
        deep = write_pgm(tmp_path / "deep.pgm", magnitudes, floor_db=-40.0)
        blob = deep.read_bytes()
        pixels = np.frombuffer(blob[len(b"P5\n2 1\n65535\n"):], dtype=">u2")
        assert pixels[1] == round((-20.0 + 40.0) / 40.0 * 65535.0)
