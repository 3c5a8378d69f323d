"""Command-line front end: simulate | fit | calibrate | sweep | report.

Exit codes: 0 success, 2 config/input error, 3 no resolved peak or a
degenerate fit.  Every command is deterministic given its options and
seed, and rerunning overwrites its outputs identically.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .constants import TWO_PI
from .device import (
    DeviceParams,
    REFERENCE_N_ADD_EFF,
    bose_occupancy,
    device_file_text,
    load_device,
    reference_device,
    zero_point_motion,
)
from .dynamics import (
    DriveConfig,
    ThermalState,
    coupling_rate,
    predict_cooling_point,
    storage_time,
)
from .errors import DegenerateFitError, ParameterError, PeakDetectionError, UnitError
from .estimation import (
    DEFAULT_FREE,
    analyze_cooling_sweep,
    calibrate_coupling,
    fit_full_model,
    fit_lorentzian,
)
from .limits import LimitReport, imprecision_from_chain, total_force_psd
from .spectra import (
    ModelParams,
    grid_for,
    output_noise_spectrum,
    read_trace,
    write_trace,
)
from .synth import NoiseConfig, generate_spectrum

def _load_device_arg(path: str | None) -> DeviceParams:
    if path is None:
        return reference_device()
    return load_device(path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _thermal_from_args(args, device: DeviceParams) -> ThermalState:
    if args.n_m_t is not None:
        return ThermalState(n_m_T=args.n_m_t, n_c=args.n_c)
    return ThermalState.from_temperature(args.temperature_k, device.mech, n_c=args.n_c)


def _model_params(args, device: DeviceParams, thermal: ThermalState) -> ModelParams:
    g = coupling_rate(device.coupling, device.mech, args.n_d)
    return ModelParams.for_device(
        device,
        g=g,
        n_m_T=thermal.n_m_T,
        n_c=thermal.n_c,
        n_add_eff=args.n_add_eff,
        delta_tilde=TWO_PI * args.delta_tilde_hz,
    )


def cmd_simulate(args) -> int:
    device = _load_device_arg(args.device)
    thermal = _thermal_from_args(args, device)
    params = _model_params(args, device, thermal)
    grid = grid_for(params, points=args.points, halfspan_hz=args.halfspan_hz)
    if args.noiseless:
        trace = output_noise_spectrum(grid, params)
    else:
        trace = generate_spectrum(params, NoiseConfig(n_avg=args.n_avg, seed=args.seed), freq_hz=grid)
    trace = trace.with_meta(n_d=args.n_d, device=args.device or "reference")
    out = _out_dir(args) / "trace.csv"
    write_trace(trace, out)
    print(out)
    return 0


def cmd_fit(args) -> int:
    device = _load_device_arg(args.device)
    trace = read_trace(args.trace)
    if args.model == "lorentzian":
        result = fit_lorentzian(trace)
    else:
        params = _model_params(args, device, _thermal_from_args(args, device))
        result = fit_full_model(trace, params, free=tuple(args.free) if args.free else DEFAULT_FREE)
    out = _out_dir(args) / "fit.json"
    text = result.to_json()
    out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _load_manifest(path: str, key: str) -> list[tuple[float, Path, str]]:
    manifest_path = Path(path)
    entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ParameterError(f"{path}: manifest must be a JSON array")
    out = []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ParameterError(f"{where}: entry must be a JSON object, got {entry!r}")
        if key not in entry or "trace_path" not in entry:
            raise ParameterError(f"{where}: entries need '{key}' and 'trace_path'")
        if not isinstance(entry["trace_path"], str):
            raise ParameterError(f"{where}: 'trace_path' must be a string, got {entry['trace_path']!r}")
        try:
            value = float(entry[key])
        except (TypeError, ValueError):
            raise ParameterError(f"{where}: '{key}' must be a number, got {entry[key]!r}") from None
        if not math.isfinite(value):  # json reads NaN and Infinity
            raise ParameterError(f"{where}: '{key}' must be a finite number, got {entry[key]!r}")
        out.append((value, manifest_path.parent / entry["trace_path"], str(entry.get("label", i))))
    return out


def _read_sweep(entries) -> list:
    """The traces of `entries` that read; each that does not is named on stderr and skipped."""
    sweep = []
    for value, trace_path, label in entries:
        try:
            sweep.append((value, read_trace(trace_path)))
        except (OSError, ParameterError, UnitError) as exc:
            print(f"skipping point {label!r}: {exc}", file=sys.stderr)
    return sweep


def cmd_calibrate(args) -> int:
    device = _load_device_arg(args.device)
    sweep = _read_sweep(_load_manifest(args.manifest, key="T"))
    drive = DriveConfig.red_detuned(device, n_d=args.n_d)
    result = calibrate_coupling(sweep, device, drive)
    out = _out_dir(args) / "calibration.json"
    text = result.to_json()
    out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_sweep(args) -> int:
    device = _load_device_arg(args.device)
    sweep = _read_sweep(_load_manifest(args.manifest, key="n_d"))
    # n_m_T is free at every point; n_c is what a point that pins it takes
    curve = analyze_cooling_sweep(sweep, device, ThermalState(n_m_T=0.0, n_c=args.n_c))
    for n_d, reason in curve.excluded:
        print(f"point n_d={n_d:g} excluded: {reason}", file=sys.stderr)
    out_dir = _out_dir(args)
    (out_dir / "cooling_curve.csv").write_text(curve.csv(), encoding="utf-8")
    (out_dir / "cooling_curve.json").write_text(curve.to_json() + "\n", encoding="utf-8")
    print(out_dir / "cooling_curve.csv")
    return 0


# the tables `report` writes: n_d at 1-2-5 per decade from 1 to 1e6, and 48
# bath temperatures from 15 to 250 mK
_REPORT_ND = tuple(mult * 10.0**exp for exp in range(6) for mult in (1.0, 2.0, 5.0)) + (1e6,)
_REPORT_TEMPS_MK = np.linspace(15.0, 250.0, 48)


def cmd_report(args) -> int:
    device = _load_device_arg(args.device)
    mech, cavity = device.mech, device.cavity
    thermal = _thermal_from_args(args, device)
    out_dir = _out_dir(args)

    lines = ["temperature_k,n_m"]
    for t_mk in _REPORT_TEMPS_MK:
        n = bose_occupancy(t_mk * 1e-3, mech.omega_m)
        lines.append(f"{t_mk * 1e-3:.17g},{n:.17g}")

    x_zp = zero_point_motion(mech)
    rows = ["n_d,g_hz,gamma_opt_hz,gamma_total_hz,s_x_imp_m2_per_hz,n_imp,n_m"]
    best = None
    for n_d in _REPORT_ND:
        pt = predict_cooling_point(device, thermal, n_d)
        n_imp = imprecision_from_chain(
            pt.g, cavity.kappa, cavity.kappa_ex, mech.gamma_m, cavity.beta, args.n_add_eff
        )
        s_x_imp = 8.0 * x_zp * x_zp * n_imp / pt.gamma_total
        rows.append(
            ",".join(
                f"{v:.17g}"
                for v in (
                    n_d,
                    pt.g / TWO_PI,
                    pt.gamma_opt / TWO_PI,
                    pt.gamma_total / TWO_PI,
                    s_x_imp,
                    n_imp,
                    pt.n_m,
                )
            )
        )
        limit = LimitReport(
            n_imp=n_imp,
            n_ba=pt.n_m + 0.5,  # conservative bound: all residual occupancy blamed on backaction
            s_x_imp=s_x_imp,
            s_f_total=total_force_psd(mech, pt.gamma_total, pt.n_m),
        )
        if best is None or limit.product_over_hbar < best[0].product_over_hbar:
            best = (limit, n_d)
    # no file is written before every value is known: a bad option leaves none behind
    (out_dir / "occupancy_vs_temperature.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "drive_sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    report = asdict(best[0])
    report["n_d"] = best[1]
    report["note"] = "product_over_hbar is an upper bound (n_ba <= n_m + 1/2 assumed)"
    report["storage_time_s"] = storage_time(thermal, mech.gamma_m)
    (out_dir / "limit_report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out_dir / "drive_sweep.csv")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of `main`, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="emcool",
        description="Sideband-cooling spectra: simulate, fit, calibrate, sweep, report.",
    )
    parser.add_argument(
        "--print-paper-defaults",
        action="store_true",
        help="print the bundled reference device parameter file and exit",
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--device", help="device parameter file (default: bundled reference)")
    common.add_argument("--out", default=".", help="output directory (default: .)")

    cavity = argparse.ArgumentParser(add_help=False)
    cavity.add_argument("--n-c", type=float, default=0.0)

    thermal = argparse.ArgumentParser(add_help=False, parents=[cavity])
    thermal.add_argument("--temperature-k", type=float, default=0.020)
    thermal.add_argument("--n-m-t", type=float, default=None, help="bath occupancy override")

    added = argparse.ArgumentParser(add_help=False)
    added.add_argument("--n-add-eff", type=float, default=REFERENCE_N_ADD_EFF)

    p = sub.add_parser("simulate", parents=[common, thermal, added], help="write a model or synthetic trace")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--n-d", type=float, default=4000.0)
    p.add_argument("--delta-tilde-hz", type=float, default=0.0)
    p.add_argument("--points", type=int, default=4096)
    p.add_argument("--halfspan-hz", type=float, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--n-avg", type=int, default=500)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common, thermal, added], help="fit a trace CSV")
    p.add_argument("trace")
    p.add_argument("--model", choices=("lorentzian", "full"), default="full")
    p.add_argument("--free", nargs="+", default=None)
    p.add_argument("--delta-tilde-hz", type=float, default=0.0)
    p.add_argument("--n-d", type=float, default=0.0, help="photons, used only when g is fixed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("calibrate", parents=[common], help="thermal-sweep calibration of G")
    p.add_argument("manifest", help="JSON array of {label, T, trace_path}")
    p.add_argument("--n-d", type=float, default=3.0, help="calibration drive photons")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", parents=[common, cavity], help="analyze a cooling sweep")
    p.add_argument("manifest", help="JSON array of {label, n_d, trace_path}")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", parents=[common, thermal, added], help="forward-model summary tables")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_paper_defaults:
        print(device_file_text(reference_device()), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeakDetectionError, DegenerateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
