"""Command-line interface.

Subcommands cover the full workflow: scene simulation, gate
compression, annihilation filtering, low-rank/sparse separation,
motion estimation, mover separation, imaging, rank studies, a
config-driven end-to-end run, and exports to CSV or PGM.  Every
command that writes artifacts appends an entry to ``manifest.json`` in
the output directory recording inputs, outputs, content hashes, and
wall time.  Exit codes: 0 success, 2 invalid arguments or
configuration, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import io as sario
from .annihil import (
    AnnihilationPlan,
    annihilate,
    energy_ratio_db,
    locate_stationary,
    remove_stationary,
)
from .imaging import ImageGrid, image_compensated
from .motion import estimate_motion, find_speed_peaks, g_curve, separate_movers
from .presets import list_presets, preset_scene
from .ranklab import rank_study
from .rpca import WindowLayout, separate_windowed
from .scene import simulate, simulate_split
from .signal import range_compress, range_expand

__all__ = ["main"]


def _parse_vector(text: str) -> np.ndarray:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3:
        raise ValueError(f"expected 'x,y' or 'x,y,z', got {text!r}")
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"vector components must be finite, got {text!r}")
    return np.array(parts)


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, step, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"expected 'lo:step:hi', got {text!r}") from None
    if step <= 0.0 or hi < lo:
        raise ValueError(f"bad sweep range {text!r}")
    return np.arange(lo, hi + 0.5 * step, step)


def _parse_grid(text: str) -> tuple[float, float, float]:
    try:
        extents, spacing = text.split(":")
        ex, ey = extents.lower().split("x")
        return float(ex), float(ey), float(spacing)
    except ValueError:
        raise ValueError(
            f"expected 'WIDTHxHEIGHT:SPACING' (meters), got {text!r}"
        ) from None


def _mover_count(value) -> int:
    count = int(value)
    if count < 0:
        raise ValueError(f"max_movers must be non-negative, got {count}")
    return count


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _record_manifest(args, inputs, outputs, elapsed: float):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    try:
        entries = json.loads(manifest_path.read_text())
        if not isinstance(entries, list):
            entries = []
    except (FileNotFoundError, json.JSONDecodeError):
        entries = []
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "handler" and not callable(value)
    }
    params = {k: str(v) if isinstance(v, Path) else v for k, v in params.items()}
    entries.append(
        {
            "command": args.command,
            "arguments": params,
            "parameters_hash": hashlib.sha256(
                json.dumps(params, sort_keys=True).encode()
            ).hexdigest(),
            "inputs": [
                {"path": str(p), "sha256": _sha256(Path(p))} for p in inputs
            ],
            "outputs": [
                {"path": str(p), "sha256": _sha256(Path(p))} for p in outputs
            ],
            "wall_time_seconds": round(elapsed, 6),
        }
    )
    manifest_path.write_text(json.dumps(entries, indent=2) + "\n")


def _load_scene(args):
    if getattr(args, "preset", None):
        return preset_scene(args.preset)
    config = json.loads(Path(args.config).read_text())
    if isinstance(config, dict) and "scene" in config:
        config = config["scene"]
    return sario.scene_from_dict(config)


def _sidecar(path) -> Path:
    data_path, meta_path = sario._trc_paths(path)
    return meta_path


def _write_g_curve(path: Path, u_grid: np.ndarray, values: np.ndarray) -> Path:
    """Write a g(u) curve as CSV: header, then one (u, g) row per trial."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u_meters_per_second", "g"])
        writer.writerows(zip(u_grid.tolist(), values.tolist()))
    return path


def _write_separation(result, base: str, low_label: str) -> list[Path]:
    """Write a mover separation's traces, their sidecars and its
    estimates, each to the path ``base`` followed by the file's name."""
    parts = [(low_label, result.low)]
    parts += [(f"mover{i}", m) for i, m in enumerate(result.movers, start=1)]
    parts.append(("residual", result.residual))
    outputs = [sario.write_trace(Path(f"{base}{n}.trc"), t) for n, t in parts]
    outputs += [_sidecar(p) for p in list(outputs)]
    estimates = Path(f"{base}estimates.json")
    estimates.write_text(
        json.dumps([est.to_dict() for est in result.estimates], indent=2) + "\n"
    )
    return outputs + [estimates]


def _write_image(path, img, pgm=None, floor_db: float = -60.0) -> list[Path]:
    """Write an image's envelope with its grid sidecar, and a PGM when
    ``pgm`` is given."""
    grid = img.grid
    out = sario.write_image(
        path,
        img.envelope,
        {
            "center_meters": grid.center.tolist(),
            "spacing_meters": grid.spacing,
            "u_vec_meters_per_second": img.u_vec.tolist(),
            "x_axis_meters": [float(grid.x_axis[0]), float(grid.x_axis[-1])],
            "y_axis_meters": [float(grid.y_axis[0]), float(grid.y_axis[-1])],
            "missed_samples": img.missed,
        },
    )
    outputs = [out, Path(str(out) + ".json")]
    if pgm:
        outputs.append(sario.write_pgm(pgm, img.envelope, floor_db))
    return outputs


def _cmd_simulate(args):
    scene = _load_scene(args)
    out = Path(args.out) if args.out else Path(args.out_dir) / "scene.trc"
    outputs = []
    if args.split:
        stationary, moving = simulate_split(scene)
        base = out.name[: -len(".trc")] if out.name.endswith(".trc") else out.name
        mixture = stationary.replace(
            data=stationary.data + moving.data,
            meta={
                **stationary.meta,
                "targets": len(scene.targets),
                "movers": len(scene.moving_targets),
            },
        )
        outputs.append(sario.write_trace(out, mixture))
        outputs.append(
            sario.write_trace(out.with_name(base + ".stationary.trc"), stationary)
        )
        outputs.append(sario.write_trace(out.with_name(base + ".moving.trc"), moving))
    else:
        outputs.append(sario.write_trace(out, simulate(scene)))
    outputs += [_sidecar(p) for p in list(outputs)]
    return [], outputs


def _cmd_compress(args):
    trace = sario.read_trace(args.input)
    if args.inverse:
        result = range_expand(trace)
    else:
        result = range_compress(trace)
    out = sario.write_trace(args.output, result)
    return [args.input], [out, _sidecar(out)]


def _cmd_annihilate(args):
    trace = sario.read_trace(args.input)
    plan = AnnihilationPlan.from_dict(json.loads(Path(args.plan).read_text()))
    started = time.perf_counter()
    result = annihilate(trace, plan)
    seconds = time.perf_counter() - started
    out = sario.write_trace(args.output, result)
    outputs = [out, _sidecar(out)]
    if args.report:
        report = {
            "stages": len(plan.stages),
            "residual_db": energy_ratio_db(trace, result),
            "valid_rows": list(result.valid_rows),
            "seconds": round(seconds, 6),
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        outputs.append(Path(args.report))
    return [args.input, args.plan], outputs


def _cmd_rpca(args):
    if args.overlap is not None and args.window_len is None:
        raise ValueError("--overlap needs --window-len")
    trace = sario.read_trace(args.input)
    layout = None
    if args.window_len is not None:
        overlap = (
            args.overlap if args.overlap is not None else args.window_len // 8
        )
        layout = WindowLayout(length=args.window_len, overlap=overlap)
    eta = None if args.eta in (None, "auto") else float(args.eta)
    # Stationary points are located only in scene coordinates: straightened
    # or filtered echoes no longer follow their delay loci.
    points = locate_stationary(trace) if trace.tag == "range-compressed" else []
    removal = remove_stationary(trace, points)
    result = separate_windowed(
        removal.rest, layout=layout, eta=eta, tol=args.tol, max_iter=args.max_iter
    )
    low = sario.write_trace(
        args.out_low,
        result.low.replace(data=removal.stationary.data + result.low.data),
    )
    sparse = sario.write_trace(args.out_sparse, result.sparse)
    outputs = [low, _sidecar(low), sparse, _sidecar(sparse)]
    if args.report:
        report = {
            "window_length": result.layout.length,
            "window_overlap": result.layout.overlap,
            "feasibility": result.feasibility,
            "windows": result.diagnostics,
            "stationary_candidates": len(points),
            "stationary_points_meters": removal.points.tolist(),
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        outputs.append(Path(args.report))
    return [args.input], outputs


def _cmd_estimate_motion(args):
    max_movers = _mover_count(args.max_movers)
    trace = sario.read_trace(args.input)
    u_grid = _parse_range(args.u_grid) if args.u_grid else None
    grid, values = g_curve(trace, u_grid)
    peaks = find_speed_peaks(grid, values, args.height_factor)
    rho = None if args.rho_e == "auto" else _parse_vector(args.rho_e)
    perp_grid = _parse_range(args.u_perp_grid) if args.u_perp_grid else None
    estimates = [
        estimate_motion(trace, u, score, rho=rho, u_perp_grid=perp_grid)[0]
        for u, score in peaks[:max_movers]
    ]
    report = {
        "peaks": [{"u_meters_per_second": u, "g_score": s} for u, s in peaks],
        "estimates": [est.to_dict() for est in estimates],
        "g_median": float(np.median(values)),
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    return [args.input], [Path(args.report)]


def _cmd_separate_movers(args):
    trace = sario.read_trace(args.input)
    result = separate_movers(trace, max_movers=args.max_movers)
    return [args.input], _write_separation(result, f"{Path(args.prefix)}.", "low")


def _cmd_image(args):
    trace = sario.read_trace(args.input)
    ex, ey, spacing = _parse_grid(args.grid)
    center = (
        _parse_vector(args.center) if args.center else np.asarray(trace.rho_o)
    )
    u_vec = _parse_vector(args.u) if args.u else np.zeros(3)
    grid = ImageGrid(center=center, extent_x=ex, extent_y=ey, spacing=spacing)
    img = image_compensated(trace, grid, u_vec)
    return [args.input], _write_image(args.output, img, args.pgm, args.floor_db)


def _cmd_rank(args):
    if args.values:
        sweep = np.array([float(v) for v in args.values.split(",")])
    elif args.sweep:
        sweep = _parse_range(args.sweep)
    else:
        raise ValueError("rank requires --sweep or --values")
    kwargs = {}
    if args.first_target:
        kwargs["first_target"] = tuple(_parse_vector(args.first_target))
    if args.second_x is not None:
        kwargs["second_x"] = args.second_x
    rows = rank_study(
        args.mode,
        sweep,
        epsilon=args.epsilon,
        empirical=args.empirical,
        **kwargs,
    )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=["parameter", "computed_rank", "estimated_rank", "n", "epsilon"],
        )
        writer.writeheader()
        writer.writerows(rows)
    return [], [out]


def _check_keys(block: dict, allowed: tuple, where: str) -> None:
    unknown = sorted(set(sario._json_object(block, where)) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {where} keys {unknown}; allowed: {', '.join(allowed)}"
        )


def _cmd_run(args):
    config = json.loads(Path(args.config).read_text())
    _check_keys(config, ("scene", "max_movers", "imaging"), "run config")
    imaging_cfg = config.get("imaging", {})
    _check_keys(imaging_cfg, ("grid", "center"), "imaging")
    max_movers = _mover_count(config.get("max_movers", 2))
    scene_spec = config["scene"]
    if isinstance(scene_spec, str):
        scene = preset_scene(scene_spec)
    else:
        scene = sario.scene_from_dict(scene_spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace = simulate(scene)
    mixture = sario.write_trace(out_dir / "mixture.trc", trace)
    outputs = [mixture, _sidecar(mixture)]
    result = separate_movers(trace, max_movers=max_movers)
    outputs += _write_separation(result, f"{out_dir}/", "stationary")
    g_curves = result.diagnostics["g_curves"]
    if g_curves:  # empty when no mover round ran
        outputs.append(_write_g_curve(out_dir / "g_curve.csv", *g_curves[0]))

    ex, ey, spacing = _parse_grid(imaging_cfg.get("grid", "60x60:0.24"))
    grid = ImageGrid(
        center=np.asarray(imaging_cfg.get("center", scene.rho_o), dtype=float),
        extent_x=ex,
        extent_y=ey,
        spacing=spacing,
    )
    for i, (mover, est) in enumerate(
        zip(result.movers, result.estimates), start=1
    ):
        for label, u_vec in (("focused", est.u_vec), ("unfocused", np.zeros(3))):
            img = image_compensated(mover, grid, u_vec)
            stem = out_dir / f"mover{i}_{label}"
            outputs += _write_image(f"{stem}.bin", img, f"{stem}.pgm")
    return [args.config], outputs


def _cmd_export(args):
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "g-curve":
        trace = sario.read_trace(args.input)
        u_grid = _parse_range(args.u_grid) if args.u_grid else None
        _write_g_curve(out, *g_curve(trace, u_grid))
    elif args.kind == "trace-pgm":
        trace = sario.read_trace(args.input)
        sario.write_pgm(out, np.abs(trace.data), args.floor_db)
    else:  # "image-pgm"; argparse's choices admit no other kind
        envelope, _ = sario.read_image(args.input)
        sario.write_pgm(out, envelope, args.floor_db)
    return [args.input], [out]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarsep",
        description="Simulate, separate, and image stationary and moving "
        "point scatterers in synthetic-aperture collections.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out-dir", default=".", help="directory for the run manifest and defaults"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="simulate scene echoes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=list_presets(), help="bundled scene")
    group.add_argument("--config", help="scene JSON file")
    p.add_argument("--out", help="output trace (default OUT_DIR/scene.trc)")
    p.add_argument(
        "--split",
        action="store_true",
        help="also write .stationary.trc and .moving.trc ground-truth parts",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "compress", parents=[common], help="move a trace between gate conventions"
    )
    p.add_argument("input")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument(
        "--inverse",
        action="store_true",
        help="expand a compressed trace back to the absolute gate",
    )
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser(
        "annihilate", parents=[common], help="apply an annihilation filter plan"
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--plan", required=True, help="JSON stage list")
    p.add_argument(
        "--report",
        help="write a JSON report: stages, residual energy, valid rows, seconds",
    )
    p.set_defaults(handler=_cmd_annihilate)

    p = sub.add_parser(
        "rpca",
        parents=[common],
        help="stationary-echo removal, then windowed low-rank/sparse separation",
    )
    p.add_argument("input")
    p.add_argument("--window-len", type=int, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--eta", default="auto")
    p.add_argument("--tol", type=float, default=1.0e-7)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out-low", required=True)
    p.add_argument("--out-sparse", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_rpca)

    p = sub.add_parser(
        "estimate-motion", parents=[common], help="scan for mover velocities"
    )
    p.add_argument("input")
    p.add_argument("--rho-e", default="auto", help="'auto' or 'x,y' meters")
    p.add_argument("--u-grid", help="range-speed sweep lo:step:hi")
    p.add_argument("--u-perp-grid", help="cross-speed sweep lo:step:hi")
    p.add_argument("--height-factor", type=float, default=3.0)
    p.add_argument("--max-movers", type=int, default=2)
    p.add_argument("--report", required=True)
    p.set_defaults(handler=_cmd_estimate_motion)

    p = sub.add_parser(
        "separate-movers", parents=[common], help="full mover-peeling pipeline"
    )
    p.add_argument("input")
    p.add_argument("--max-movers", type=int, default=2)
    p.add_argument("--prefix", default="separated", help="output path prefix")
    p.set_defaults(handler=_cmd_separate_movers)

    p = sub.add_parser("image", parents=[common], help="backprojection image")
    p.add_argument("input")
    p.add_argument("--grid", required=True, help="WIDTHxHEIGHT:SPACING meters")
    p.add_argument("--center", help="grid center 'x,y' (default scene reference)")
    p.add_argument("--u", help="compensation velocity 'ux,uy' m/s")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--pgm", help="also write a PGM rendering")
    p.add_argument("--floor-db", type=float, default=-60.0)
    p.set_defaults(handler=_cmd_image)

    p = sub.add_parser("rank", parents=[common], help="covariance rank study")
    p.add_argument(
        "--mode",
        required=True,
        choices=["single-stationary", "single-mover", "two-target"],
    )
    p.add_argument("--sweep", help="parameter sweep lo:step:hi")
    p.add_argument("--values", help="explicit comma-separated parameter values")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument(
        "--empirical",
        action="store_true",
        help="rank simulated echoes instead of the covariance model",
    )
    p.add_argument("--first-target", help="two-target mode: first target 'x,y'")
    p.add_argument(
        "--second-x", type=float, default=None, help="two-target mode: second target x"
    )
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser(
        "run", parents=[common], help="simulate and separate a configured scene"
    )
    p.add_argument("--config", required=True, help="pipeline JSON")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("export", parents=[common], help="export derived artifacts")
    p.add_argument(
        "--kind", required=True, choices=["g-curve", "trace-pgm", "image-pgm"]
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--u-grid", help="g-curve sweep lo:step:hi")
    p.add_argument("--floor-db", type=float, default=-60.0)
    p.set_defaults(handler=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # JSONDecodeError and LinAlgError are ValueErrors, so they come first.
    try:
        inputs, outputs = args.handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _record_manifest(args, inputs, outputs, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
