"""Command-line front end: config resolution, subcommands, deterministic CSV.

One path from subcommand to CSV: main resolves the config, the subcommand
returns what it computed as an Output, and emit writes it.  Every output starts
with a comment header carrying the digest of the resolved run manifest;
identical manifests produce byte-identical output.  Wall-clock time lives only
in the optional sidecar manifest file, never in the CSV.

Exit codes: 0 ok, 2 invalid config/usage, 3 numerical non-convergence,
4 bracket/crossover failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from typing import Iterable, NamedTuple

import numpy as np

from . import __version__, analysis, dynamics, engine
from .constants import A_RB
from .params import (
    _CONFIG_KEYS,
    PhysicalConfig,
    config_overrides,
    default_config,
    model_from_config,
    parse_config_file,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_BRACKET = 4


def _fmt(value) -> str:
    """12-significant-digit decimal text, locale-independent."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return f"{float(value):.11e}"


# ---------------------------------------------------------------------------
# config resolution: defaults < config file < flags
# ---------------------------------------------------------------------------


def _flag(key: str) -> str:
    """Command-line spelling of a config-file key: L_nm -> --l-nm."""
    return "--" + key.lower().replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for key in _CONFIG_KEYS:
        parser.add_argument(_flag(key), dest=key, metavar="VALUE", help=f"as config key {key}")


def _resolve_config(args) -> PhysicalConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    flags = [(_flag(key), key, getattr(args, key)) for key in _CONFIG_KEYS if getattr(args, key) is not None]
    overrides.update(config_overrides(flags))
    return default_config(**overrides)


# ---------------------------------------------------------------------------
# manifest + CSV emission
# ---------------------------------------------------------------------------


def build_manifest(command: str, config: PhysicalConfig | None, parameters: dict) -> dict:
    tolerances = {
        "rate_rtol": engine.RATE_RTOL,
        "noise_guard": dynamics.NOISE_GUARD,
        "horizon_caps_t0": dynamics.HORIZON_CAPS,
        "grid_size": dynamics.DEFAULT_GRID,
    }
    return {
        "command": command,
        "version": __version__,
        "config": dataclasses.asdict(config) if config is not None else {},
        "parameters": parameters,
        "tolerances": tolerances,
    }


def manifest_digest(manifest: dict) -> str:
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _header_lines(manifest: dict) -> list[str]:
    lines = [
        "# becqubit-csv v1",
        f"# digest={manifest_digest(manifest)}",
        f"# command={manifest['command']}",
        f"# version={manifest['version']}",
    ]
    for key, value in manifest["config"].items():
        lines.append(f"# config.{key}={_fmt(value) if isinstance(value, float) else value}")
    for key, value in sorted(manifest["parameters"].items()):
        lines.append(f"# param.{key}={value}")
    return lines


class Output(NamedTuple):
    """What a subcommand computed: the manifest parameters, the CSV columns and
    rows, an optional comment line after the rows, and the exit code."""

    parameters: dict
    columns: list[str]
    rows: Iterable
    trailer: str | None = None
    code: int = EXIT_OK


def emit(args, config: PhysicalConfig | None, output: Output, t_start: float) -> None:
    """The CSV (header, columns, rows, trailer) to --out or stdout; with --out
    also the sidecar manifest, which alone carries the wall-clock time."""
    manifest = build_manifest(args.command, config, output.parameters)
    lines = _header_lines(manifest) + [",".join(output.columns)]
    lines += [",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) for row in output.rows]
    if output.trailer:
        lines.append(output.trailer)
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sidecar = dict(manifest)
        sidecar["digest"] = manifest_digest(manifest)
        sidecar["wall_clock_s"] = time.time() - t_start
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _window(args, model) -> tuple[float, str]:
    """The scan window in seconds, --t-max-t0 or by default the cap of the
    dimension (dynamics.scan_window), and its manifest text in units of t0."""
    t_max = dynamics.scan_window(model, None if args.t_max_t0 is None else args.t_max_t0 * model.t0)
    return t_max, _fmt(t_max / model.t0)


# ---------------------------------------------------------------------------
# subcommands: (parsed args, resolved config) -> Output
# ---------------------------------------------------------------------------


def cmd_trace(args, config) -> Output:
    """The rate or decoherence trace, by subcommand name."""
    model = model_from_config(config)
    t_max, _ = _window(args, model)
    if args.command == "rate":
        trace = engine.build_rate_trace(model, t_max, n_points=args.points)
        columns, rows = ["t_s", "gamma_per_s"], zip(trace.times, trace.gamma)
    else:
        trace = engine.build_decoherence_trace(model, t_max, n_points=args.points)
        columns, rows = ["t_s", "Gamma", "coherence"], zip(trace.times, trace.Gamma, trace.coherence)
    return Output({"t_max_s": _fmt(t_max), "points": args.points}, columns, rows)


def cmd_measure(args, config) -> Output:
    model = model_from_config(config)
    t_max, t_max_t0 = _window(args, model)
    result = dynamics.measure(model, t_max)
    rows = [
        ["N", result.N],
        ["N_blp", result.N_blp],
        ["t_max_used_s", result.t_max_used],
        ["n_intervals", len(result.intervals)],
    ]
    for idx, iv in enumerate(result.intervals, start=1):
        rows.append([f"interval_{idx}_a_s", iv.a])
        rows.append([f"interval_{idx}_b_s", iv.b])
    trailer = (
        f"# summary: N={_fmt(result.N)} N_blp={_fmt(result.N_blp)} "
        f"intervals={len(result.intervals)} t_max_s={_fmt(result.t_max_used)}"
    )
    return Output({"t_max_t0": t_max_t0}, ["quantity", "value"], rows, trailer)


def cmd_crossover(args, config) -> Output:
    tol = args.tol_arb * A_RB
    a_B_max = args.a_b_max_arb * A_RB if args.a_b_max_arb is not None else None
    t_max, t_max_t0 = _window(args, model_from_config(config))
    result = analysis.find_crossover(config.dimension, config, tol=tol, a_B_max=a_B_max, t_max=t_max)
    row = [result.dimension, result.a_crit, result.a_crit_over_aRb, *result.bracket, result.evaluations]
    return Output(
        {"tol_arb": args.tol_arb, "a_b_max_arb": args.a_b_max_arb, "t_max_t0": t_max_t0},
        ["dimension", "a_crit_m", "a_crit_over_aRb", "bracket_lo_m", "bracket_hi_m", "evaluations"],
        [row],
    )


def cmd_sweep(args, config) -> Output:
    try:
        raw = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --grid: {exc}") from exc
    col = {"a_B": "a_B_over_aRb", "L": "L_nm"}[args.axis]  # the config key of the grid unit
    _, scale = _CONFIG_KEYS[col]
    table = analysis.sweep(args.axis, [v * scale for v in raw], config)
    rows = [[v, N if N == N else "", diag["status"]] for v, N, diag in zip(raw, table.N, table.diagnostics)]
    code = EXIT_CONVERGENCE if any(status != "ok" for _, _, status in rows) else EXIT_OK
    return Output({"axis": args.axis, "grid": args.grid}, [col, "N", "status"], rows, code=code)


def cmd_spectrum(args, config) -> Output:
    model = model_from_config(config)
    omegas = np.geomspace(args.omega_min_per_s, args.omega_max_per_s, args.points)
    window = None
    if args.fit_lo_per_s is not None or args.fit_hi_per_s is not None:
        if args.fit_lo_per_s is None or args.fit_hi_per_s is None:
            raise ValueError("--fit-lo-per-s and --fit-hi-per-s must be given together")
        window = (args.fit_lo_per_s, args.fit_hi_per_s)
    profile = engine.effective_spectral_density(model, omegas, fit_window=window)
    lo, hi = profile.fit_window
    parameters = {
        "omega_min_per_s": _fmt(args.omega_min_per_s),
        "omega_max_per_s": _fmt(args.omega_max_per_s),
        "points": args.points,
        "fit_window_per_s": f"{_fmt(lo)}..{_fmt(hi)}",
    }
    trailer = f"# s_fit={_fmt(profile.s_fit)} over [{_fmt(lo)},{_fmt(hi)}] per_s"
    return Output(parameters, ["omega_per_s", "J"], zip(profile.omegas, profile.J), trailer)


def cmd_toy(args, config) -> Output:
    if args.critical:
        s_crit = analysis.toy_critical_s(args.omega_c, tol=args.tol)
        return Output(
            {"critical": True, "omega_c": _fmt(args.omega_c), "tol": _fmt(args.tol)},
            ["omega_c", "s_crit", "tol"],
            [[args.omega_c, s_crit, args.tol]],
        )
    toy = analysis.ToyModel(s=args.s, omega_c=args.omega_c)
    times, gamma = analysis.toy_rate_trace(toy, args.t_max_wc / args.omega_c, args.points)
    parameters = {
        "critical": False,
        "s": _fmt(args.s),
        "omega_c": _fmt(args.omega_c),
        "t_max_wc": _fmt(args.t_max_wc),
        "points": args.points,
    }
    return Output(parameters, ["t", "gamma_toy"], zip(times, gamma))


def cmd_verify_pairs(args, config) -> Output:
    model = model_from_config(config)
    t_max, t_max_t0 = _window(args, model)
    report = dynamics.verify_optimal_pair(model, t_max, n_random_pairs=args.pairs, seed=args.seed)
    return Output(
        {"pairs": args.pairs, "seed": args.seed, "t_max_t0": t_max_t0},
        ["n_pairs", "optimal_regain", "max_random_regain", "max_ratio", "seed"],
        [[report.n_pairs, report.optimal_regain, report.max_random_regain, report.max_ratio, report.seed]],
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becqubit",
        description="Impurity-qubit dephasing in a BEC: rates, back-flow measures, crossovers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, config=True, window=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if config:
            _add_config_flags(p)
        if window:
            p.add_argument("--t-max-t0", type=float, help="scan or trace window in units of t0 (default: the cap)")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.set_defaults(fn=fn)
        return p

    for name, about in (
        ("rate", "decay rate gamma(t) trace as CSV"),
        ("decoherence", "decoherence exponent and coherence trace"),
    ):
        p = add(name, cmd_trace, window=True, help=about)
        p.add_argument("--points", type=int, default=500)

    add("measure", cmd_measure, window=True, help="non-Markovianity measures and intervals")

    p = add("crossover", cmd_crossover, window=True, help="critical scattering length, bracketed to a width")
    p.add_argument("--tol-arb", type=float, default=1e-3, help="bracket width in a_Rb units")
    p.add_argument("--a-b-max-arb", type=float, help="override the bracket top (a_Rb units)")

    p = add("sweep", cmd_sweep, help="N along an a_B or L grid")
    p.add_argument("--axis", choices=("a_B", "L"), required=True)
    p.add_argument("--grid", required=True, help="comma list; a_B in a_Rb units, L in nm")

    p = add("spectrum", cmd_spectrum, help="effective spectral density CSV")
    p.add_argument("--omega-min-per-s", type=float, default=1e2)
    p.add_argument("--omega-max-per-s", type=float, default=1e7)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--fit-lo-per-s", type=float)
    p.add_argument("--fit-hi-per-s", type=float)

    p = add("toy", cmd_toy, config=False, help="toy Ohmic-family spectrum rate / critical exponent")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--omega-c", type=float, default=1.0)
    p.add_argument("--t-max-wc", type=float, default=64.0, help="window in units of 1/omega_c")
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--critical", action="store_true", help="bisect s_crit instead of tracing")
    p.add_argument("--tol", type=float, default=1e-2)

    p = add("verify-pairs", cmd_verify_pairs, window=True, help="optimal-pair property over random states")
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=dynamics.DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t_start = time.time()
    try:
        config = None if args.command == "toy" else _resolve_config(args)
        output = args.fn(args, config)
        emit(args, config, output, t_start)
        return output.code
    except analysis.BracketError as exc:
        print(f"becqubit: bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except engine.ConvergenceError as exc:
        print(f"becqubit: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"becqubit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
