"""Command line interface: fit/predict, simulate, and verify.

All commands are driven by a JSON config file; a few common I/O settings
can be overridden with flags.  Angles cross the boundary in radians unless
``--degrees`` (or ``"degrees": true`` in the ``io`` block) is set, in which
case every user-facing angle (CSV columns, ``tau``, prediction points) is
in degrees.  Numbers are written with 17 significant digits so values
round-trip exactly through text.

Exit status is 0 on success and 1 on any error; ``verify`` also exits 1
when a check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import config
from .circle import TWO_PI, CardinalBasis
from .covariance import IntrinsicCovariance, SpectralModel, spline_covariance
from .errors import CircKrigError
from .kriging import Dataset, fit_universal
from .simulate import simulate_brownian_bridge, simulate_irf
from .verification import run_verification

__all__ = ["main"]

_SPLINE_KERNELS = {"spline-m1": 1, "spline-m2": 2}
# Rows formatted into one string per write: a simulate run can write 2**27
# rows, which must never be held as text at once.
_CSV_CHUNK = 65_536


class _CommandError(Exception):
    """User-facing configuration or input error."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _CommandError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise _CommandError(f"config {path} must be a JSON object")
    return cfg


def _read_series_csv(path: str, degrees: bool) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Read (angle, value) rows; extra columns are ignored.

    A repeated column name means its last column, and blank lines are
    skipped without counting toward the reported line numbers.
    """
    angles = []
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise _CommandError(f"{path}: file is empty")
        index = {name: i for i, name in enumerate(header)}
        missing = {"angle", "value"} - set(index)
        if missing:
            raise _CommandError(
                f"{path}: missing column(s) {sorted(missing)}; "
                f"found {header}"
            )
        columns = ((index["angle"], "angle", angles),
                   (index["value"], "value", values))
        for lineno, row in enumerate(filter(None, reader), start=2):
            for i, col, dest in columns:
                raw = row[i] if i < len(row) else ""
                if raw.strip() == "":
                    raise _CommandError(
                        f"{path}: line {lineno}: missing {col}")
                try:
                    val = float(raw)
                except ValueError:
                    raise _CommandError(
                        f"{path}: line {lineno}: cannot parse {col} "
                        f"value {raw!r}")
                if not math.isfinite(val):
                    raise _CommandError(
                        f"{path}: line {lineno}: {col} is not finite")
                dest.append(val)
    if not angles:
        raise _CommandError(f"{path}: no data rows")
    ang = np.asarray(angles)
    if degrees:
        ang = np.radians(ang)
    return ang, np.asarray(values)


def _chunks(size: int):
    """Slices of ``range(size)`` of at most ``_CSV_CHUNK`` rows."""
    for start in range(0, size, _CSV_CHUNK):
        yield slice(start, start + _CSV_CHUNK)


def _open_csv(path: str, header: str):
    """``path`` opened for writing, with its header line written.  Rows
    end in ``\r\n``, as ``csv.writer`` ends them."""
    fh = open(path, "w", newline="", encoding="utf-8")
    fh.write(header + "\r\n")
    return fh


def _echo_config(output: str, resolved: dict) -> str:
    echo_path = str(output) + ".config.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return echo_path


def _angles_out(angles: np.ndarray, degrees: bool) -> np.ndarray:
    return np.degrees(angles) if degrees else angles


def _path(value, name: str) -> str:
    if not isinstance(value, str):
        raise _CommandError(f"{name} must be a path string, got {value!r}")
    return value


def _degrees(args, io_cfg: dict) -> bool:
    return config.flag(io_cfg.get("degrees", False),
                       "io.degrees") or args.degrees


def _model_block(cfg: dict) -> tuple[dict, str | None]:
    """The ``model`` block and its kernel name (``None`` if absent)."""
    model_cfg = cfg.get("model")
    if not isinstance(model_cfg, dict):
        raise _CommandError("config needs a 'model' block")
    kernel = model_cfg.get("kernel")
    if kernel is not None and not isinstance(kernel, str):
        raise _CommandError(f"kernel must be a name, got {kernel!r}")
    return model_cfg, kernel


def _build_covariance(model_cfg: dict, kernel) -> IntrinsicCovariance:
    spectrum = model_cfg.get("spectrum")
    if (kernel is None) == (spectrum is None):
        raise _CommandError(
            "model block needs exactly one of 'kernel' or 'spectrum'")
    if kernel is not None:
        if kernel in _SPLINE_KERNELS:
            return spline_covariance(_SPLINE_KERNELS[kernel])
        raise _CommandError(
            f"unknown kernel {kernel!r} for fitting; pick from "
            f"{sorted(_SPLINE_KERNELS)} or give a spectrum")
    return IntrinsicCovariance(SpectralModel.from_config(spectrum))


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    model_cfg, kernel = _model_block(cfg)
    io_cfg = config.block(cfg, "io")
    degrees = _degrees(args, io_cfg)
    data_path = _path(args.data or io_cfg.get("data", ""), "io.data")
    output = _path(args.output or io_cfg.get("output", ""), "io.output")
    if not data_path or not output:
        raise _CommandError("fit needs a data path and an output path "
                            "(flags or the io block)")

    covariance = _build_covariance(model_cfg, kernel)
    nugget = config.number(cfg.get("nugget", 0.0), "nugget")
    basis_name = cfg.get("basis", "trig")
    tau = cfg.get("tau", "equispaced")
    if basis_name == "cardinal":
        if tau == "equispaced":
            basis = CardinalBasis(covariance.kappa)
        else:
            nodes = config.numbers(tau, "tau")
            if degrees:
                nodes = np.radians(nodes)
            basis = CardinalBasis(covariance.kappa, nodes)
    elif basis_name == "trig":
        if tau != "equispaced":
            raise _CommandError(
                "custom tau nodes require the 'cardinal' basis")
        basis = "trig"
    else:
        raise _CommandError(f"unknown basis {basis_name!r}")

    points_cfg = io_cfg.get("prediction_points")
    if points_cfg is not None:
        points_cfg = config.numbers(points_cfg, "io.prediction_points",
                                    max_points=config.MAX_PREDICTION_GRID)
        pred_pts = np.radians(points_cfg) if degrees else points_cfg
        grid_echo = {"prediction_points": points_cfg.tolist()}
    else:
        grid_size = config.number(io_cfg.get("grid_size", 256),
                                  "io.grid_size", integer=True, minimum=1,
                                  maximum=config.MAX_PREDICTION_GRID)
        pred_pts = TWO_PI * np.arange(grid_size) / grid_size
        grid_echo = {"grid_size": grid_size}

    angles, values = _read_series_csv(data_path, degrees)
    model = fit_universal(Dataset(angles, values), covariance, nugget, basis)

    vals, variances = model.predict_with_variance(pred_pts)
    vals = np.atleast_1d(vals)
    variances = np.atleast_1d(variances)

    shown = _angles_out(pred_pts, degrees)
    with _open_csv(output, "angle,prediction,kriging_variance") as fh:
        for rows in _chunks(shown.size):
            fh.write("".join(
                f"{a:.17g},{v:.17g},{s2:.17g}\r\n" for a, v, s2 in zip(
                    shown[rows].tolist(), vals[rows].tolist(),
                    variances[rows].tolist())))

    resolved = {
        "command": "fit",
        "model": ({"kernel": kernel} if kernel is not None
                  else {"spectrum": covariance.model.to_config()}),
        "nugget": nugget,
        "basis": basis_name,
        "tau": tau,
        "io": {
            "data": data_path,
            "output": output,
            "degrees": degrees,
            **grid_echo,
        },
        "diagnostics": model.diagnostics,
    }
    echo = _echo_config(output, resolved)
    print(f"fit: {model.data.n} observations, {pred_pts.size} predictions "
          f"-> {output} (config echo {echo})")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    model_cfg, kernel = _model_block(cfg)
    sim_cfg = config.block(cfg, "simulate")
    io_cfg = config.block(cfg, "io")
    degrees = _degrees(args, io_cfg)
    output = _path(args.output or io_cfg.get("output", ""), "io.output")
    if not output:
        raise _CommandError("simulate needs an output path")
    n_real, grid_size = config.simulation_size(sim_cfg)
    seed = config.number(sim_cfg.get("seed", 0), "simulate.seed",
                         integer=True, minimum=0)
    low_order = sim_cfg.get("low_order")
    if isinstance(low_order, list):
        low_order = config.numbers(low_order, "simulate.low_order").tolist()
    elif low_order is not None:
        low_order = config.number(low_order, "simulate.low_order")

    if kernel == "brownian-bridge":
        if low_order is not None:
            raise _CommandError(
                "low_order only applies to spectral models")
        paths = simulate_brownian_bridge(grid_size, n_real, seed)
        model_echo = {"kernel": kernel}
    else:
        if kernel in _SPLINE_KERNELS:
            # Named kernels truncate at the finest frequency the grid
            # resolves.
            model = SpectralModel.power_law(
                1, 2.0, 2.0 * _SPLINE_KERNELS[kernel],
                n_max=(grid_size - 1) // 2)
        elif kernel is None and "spectrum" in model_cfg:
            model = SpectralModel.from_config(model_cfg["spectrum"])
        else:
            raise _CommandError(
                f"unknown kernel {kernel!r} for simulation; pick from "
                f"{sorted(_SPLINE_KERNELS) + ['brownian-bridge']} or give "
                "a spectrum")
        paths = simulate_irf(model, n_real, grid_size, seed,
                             low_order=low_order)
        model_echo = ({"kernel": kernel} if kernel is not None
                      else {"spectrum": model.to_config()})

    shown = _angles_out(TWO_PI * np.arange(grid_size) / grid_size, degrees)

    with _open_csv(output, "angle,value,realization") as fh:
        for i, path in enumerate(paths):
            for rows in _chunks(grid_size):
                fh.write("".join(
                    f"{a:.17g},{v:.17g},{i}\r\n" for a, v in zip(
                        shown[rows].tolist(), path[rows].tolist())))
    resolved = {
        "command": "simulate",
        "model": model_echo,
        "simulate": {"n_realizations": n_real, "grid_size": grid_size,
                     "seed": seed, "low_order": low_order},
        "io": {"output": str(output), "degrees": degrees},
    }
    echo = _echo_config(output, resolved)
    print(f"simulate: {n_real} realizations on a {grid_size}-point grid "
          f"-> {output} (config echo {echo})")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    verify_cfg = config.block(cfg, "verify")
    io_cfg = config.block(cfg, "io")
    output = _path(args.output or io_cfg.get("output", "verify_report.json"),
                   "io.output")

    report = run_verification(verify_cfg)
    for result in report.results:
        print(result.line())
    report.to_json(output)
    resolved = {"command": "verify", "verify": verify_cfg,
                "io": {"output": str(output)}}
    _echo_config(output, resolved)
    status = "PASS" if report.passed else "FAIL"
    print(f"verify: {status} ({len(report.results)} checks) -> {output}")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circkrig",
        description="Kriging, simulation, and verification for intrinsic "
                    "random functions on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a kriging model and predict")
    p_fit.add_argument("--config", required=True, help="JSON config path")
    p_fit.add_argument("--data", help="override io.data (CSV angle,value)")
    p_fit.add_argument("--output", help="override io.output (CSV)")
    p_fit.add_argument("--degrees", action="store_true",
                       help="angles in degrees on input and output")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate realizations")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--output", help="override io.output (CSV)")
    p_sim.add_argument("--degrees", action="store_true",
                       help="angles in degrees on output")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--config", help="JSON config path (optional)")
    p_ver.add_argument("--output", help="override io.output (JSON report)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CommandError, CircKrigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
