"""Command-line front end: config resolution, subcommands, deterministic CSV.

Every output starts with a comment header carrying the digest of the resolved
run manifest; identical manifests produce byte-identical output.  Wall-clock
time lives only in the optional sidecar manifest file, never in the CSV.

Exit codes: 0 ok, 2 invalid config/usage, 3 numerical non-convergence,
4 bracket/crossover failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time

import numpy as np

from . import __version__, analysis, dynamics, engine
from .constants import A_RB
from .params import (
    _CONFIG_KEYS,
    PhysicalConfig,
    apply_overrides,
    config_items,
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
    return apply_overrides(default_config(), overrides)


# ---------------------------------------------------------------------------
# manifest + CSV emission
# ---------------------------------------------------------------------------


def build_manifest(command: str, config: PhysicalConfig | None, parameters: dict) -> dict:
    tolerances = {
        "rate_rtol": engine.RATE_RTOL,
        "noise_guard": dynamics.NOISE_GUARD,
        "decay_fraction": dynamics.DECAY_FRACTION,
        "horizon_start_t0": dynamics.HORIZON_START,
        "horizon_caps_t0": dynamics.HORIZON_CAPS,
        "grid_size": dynamics.DEFAULT_GRID,
    }
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in config_items(config)} if config is not None else {},
        "parameters": parameters,
        "tolerances": tolerances,
    }
    return manifest


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


def emit(args, manifest: dict, columns: list[str], rows: list[list], trailer: str | None = None) -> None:
    buf = io.StringIO()
    for line in _header_lines(manifest):
        buf.write(line + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) + "\n")
    if trailer:
        buf.write(trailer + "\n")
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sidecar = dict(manifest)
        sidecar["digest"] = manifest_digest(manifest)
        sidecar["wall_clock_s"] = time.time() - args._t_start
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _t_max(args, model) -> float:
    if args.t_max_t0 is not None:
        return args.t_max_t0 * model.t0
    t_max, _ = dynamics.choose_horizon(model)
    return t_max


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_trace(args) -> int:
    """The rate or decoherence trace, by subcommand name."""
    config = _resolve_config(args)
    model = model_from_config(config)
    t_max = _t_max(args, model)
    if args.command == "rate":
        trace = engine.build_rate_trace(model, t_max, n_points=args.points)
        columns, rows = ["t_s", "gamma_per_s"], zip(trace.times, trace.gamma)
    else:
        trace = engine.build_decoherence_trace(model, t_max, n_points=args.points)
        columns, rows = ["t_s", "Gamma", "coherence"], zip(trace.times, trace.Gamma, trace.coherence)
    manifest = build_manifest(args.command, config, {"t_max_s": _fmt(t_max), "points": args.points})
    emit(args, manifest, columns, rows)
    return EXIT_OK


def cmd_measure(args) -> int:
    config = _resolve_config(args)
    model = model_from_config(config)
    t_max = args.t_max_t0 * model.t0 if args.t_max_t0 is not None else None
    result = dynamics.measure(model, t_max)
    manifest = build_manifest(
        "measure",
        config,
        {"t_max_t0": args.t_max_t0 if args.t_max_t0 is not None else "auto"},
    )
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
    emit(args, manifest, ["quantity", "value"], rows, trailer=trailer)
    return EXIT_OK


def cmd_crossover(args) -> int:
    config = _resolve_config(args)
    tol = args.tol_arb * A_RB
    a_B_max = args.a_b_max_arb * A_RB if args.a_b_max_arb is not None else None
    result = analysis.find_crossover(config.dimension, config, tol=tol, a_B_max=a_B_max)
    manifest = build_manifest(
        "crossover",
        config,
        {"tol_arb": args.tol_arb, "a_b_max_arb": args.a_b_max_arb},
    )
    rows = [[
        result.dimension,
        result.a_crit,
        result.a_crit_over_aRb,
        result.bracket[0],
        result.bracket[1],
        result.evaluations,
    ]]
    emit(
        args,
        manifest,
        ["dimension", "a_crit_m", "a_crit_over_aRb", "bracket_lo_m", "bracket_hi_m", "evaluations"],
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    try:
        raw = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --grid: {exc}") from exc
    col = {"a_B": "a_B_over_aRb", "L": "L_nm"}[args.axis]  # the config key of the grid unit
    _, scale = _CONFIG_KEYS[col]
    table = analysis.sweep(args.axis, [v * scale for v in raw], config)
    manifest = build_manifest("sweep", config, {"axis": args.axis, "grid": args.grid})
    rows = []
    failed = False
    for v, N, diag in zip(raw, table.N, table.diagnostics):
        status = diag.get("status", "ok")
        failed = failed or status != "ok"
        rows.append([v, N if N == N else "", status])
    emit(args, manifest, [col, "N", "status"], rows)
    return EXIT_CONVERGENCE if failed else EXIT_OK


def cmd_spectrum(args) -> int:
    config = _resolve_config(args)
    model = model_from_config(config)
    omegas = np.geomspace(args.omega_min_per_s, args.omega_max_per_s, args.points)
    window = None
    if args.fit_lo_per_s is not None or args.fit_hi_per_s is not None:
        if args.fit_lo_per_s is None or args.fit_hi_per_s is None:
            raise ValueError("--fit-lo-per-s and --fit-hi-per-s must be given together")
        window = (args.fit_lo_per_s, args.fit_hi_per_s)
    profile = engine.effective_spectral_density(model, omegas, fit_window=window)
    manifest = build_manifest(
        "spectrum",
        config,
        {
            "omega_min_per_s": _fmt(args.omega_min_per_s),
            "omega_max_per_s": _fmt(args.omega_max_per_s),
            "points": args.points,
            "fit_window_per_s": f"{_fmt(profile.fit_window[0])}..{_fmt(profile.fit_window[1])}",
        },
    )
    rows = [[w, J] for w, J in zip(profile.omegas, profile.J)]
    trailer = f"# s_fit={_fmt(profile.s_fit)} over [{_fmt(profile.fit_window[0])},{_fmt(profile.fit_window[1])}] per_s"
    emit(args, manifest, ["omega_per_s", "J"], rows, trailer=trailer)
    return EXIT_OK


def cmd_toy(args) -> int:
    if args.critical:
        s_crit = analysis.toy_critical_s(args.omega_c, tol=args.tol)
        manifest = build_manifest(
            "toy", None, {"critical": True, "omega_c": _fmt(args.omega_c), "tol": _fmt(args.tol)}
        )
        emit(args, manifest, ["omega_c", "s_crit", "tol"], [[args.omega_c, s_crit, args.tol]])
        return EXIT_OK
    toy = analysis.ToyModel(s=args.s, omega_c=args.omega_c)
    times, gamma = analysis.toy_rate_trace(toy, args.t_max_wc / args.omega_c, args.points)
    manifest = build_manifest(
        "toy",
        None,
        {
            "critical": False,
            "s": _fmt(args.s),
            "omega_c": _fmt(args.omega_c),
            "t_max_wc": _fmt(args.t_max_wc),
            "points": args.points,
        },
    )
    rows = [[t, g] for t, g in zip(times, gamma)]
    emit(args, manifest, ["t", "gamma_toy"], rows)
    return EXIT_OK


def cmd_verify_pairs(args) -> int:
    config = _resolve_config(args)
    model = model_from_config(config)
    t_max = args.t_max_t0 * model.t0 if args.t_max_t0 is not None else None
    report = dynamics.verify_optimal_pair(model, t_max, n_random_pairs=args.pairs, seed=args.seed)
    manifest = build_manifest(
        "verify-pairs", config, {"pairs": args.pairs, "seed": args.seed}
    )
    rows = [[report.n_pairs, report.optimal_regain, report.max_random_regain, report.max_ratio, report.seed]]
    emit(
        args,
        manifest,
        ["n_pairs", "optimal_regain", "max_random_regain", "max_ratio", "seed"],
        rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becqubit",
        description="Impurity-qubit dephasing in a BEC: rates, back-flow measures, crossovers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, config=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if config:
            _add_config_flags(p)
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.set_defaults(fn=fn)
        return p

    for name, about in (
        ("rate", "decay rate gamma(t) trace as CSV"),
        ("decoherence", "decoherence exponent and coherence trace"),
    ):
        p = add(name, cmd_trace, help=about)
        p.add_argument("--t-max-t0", type=float, help="trace horizon in units of t0 (default: policy)")
        p.add_argument("--points", type=int, default=500)

    p = add("measure", cmd_measure, help="non-Markovianity measures and intervals")
    p.add_argument("--t-max-t0", type=float)

    p = add("crossover", cmd_crossover, help="critical scattering length by bisection")
    p.add_argument("--tol-arb", type=float, default=1e-3, help="bisection tolerance in a_Rb units")
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

    p = add("verify-pairs", cmd_verify_pairs, help="optimal-pair property over random states")
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=dynamics.DEFAULT_SEED)
    p.add_argument("--t-max-t0", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t_start = time.time()
    try:
        return args.fn(args)
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
