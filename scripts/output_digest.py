#!/usr/bin/env python3
"""One sha256 per group of library outputs, for bit-for-bit comparisons.

Run it on two checkouts and diff the output: equal lines mean the group's
numbers are identical to the last bit.

  PYTHONPATH=src python3 scripts/output_digest.py

Groups:
  crossover  find_crossover in 1D/2D/3D and in 3D at L = 50/100 nm and
             tau = 30/60 nm: a_crit, bracket, evaluations; the evaluations of
             each run are also printed, after the digests
  measure    measure and scan on the 30 draws of tests/conftest.py::random_config
             (seed 20120731): N, N_blp, intervals, diagnostics, cells
  scan_traces
             the trace of the same scans: gamma bytes and rel_tol.  A change
             that moves only the last bits of trace values shows here and not
             on measure.
  pointwise  rate and decoherence on the same 30 draws at POINTWISE_T0 (0.3 to
             1420 t0)
  traces     rate and Gamma traces (2000 points) at the horizon cap of each
             dimension, free gas and default coupling
  toy        toy_critical_s at omega_c 1 and 10
  spectral   rate_from_spectrum in 1D/2D/3D, free gas and default coupling, at
             0.5, 5 and 60 t0
  spectral_density
             effective_spectral_density on the same six models: J bytes and
             s_fit on 200-point geometric grids over five decades from
             SPECTRAL_DENSITY_LOWS (rad/s).  A change to J alone shows here.
  toy_spectral
             toy_rate_trace at the CLI defaults and at s 1, 2.5 and 3; toy_rate
             at a few times
  cli        stdout, stderr and exit code of cli.main on CLI_CALLS: every
             subcommand but toy at cheap settings, with and without an explicit
             window, and the failures that exit 2 and 4
  cli_rows   the same calls with the header comment block (manifest digest
             and fields) cut from stdout; the column line, rows and trailer
             stay.  A change that only touches the manifest shows on cli alone.
  cli_toy    the same as cli for the toy calls in CLI_TOY_CALLS

The model groups (crossover to spectral_density, cli, cli_rows) and the toy groups
(toy_spectral, cli_toy) are apart, so a change to the toy's quadrature shows
on its own lines.

A point that raises contributes its exception type and message instead; each
line ends with how many did.

After the digests, one line per group counts the adaptive values
(engine._converged) it certified at each refine level, and the line after it
the nodes of every node set _converged built for them, rejected levels
included, each node set once: the node sets of one window
(engine._window_values) serve all of an interval end's values.  A spot-check
reference served from its cache (engine._spot_reference) counts only in the
group that computed it.  A group that solved interval ends (dynamics._sign_change) has
one more line: the interior ends (not clipped at the window's end) and the
rate evaluations they took.  The counts go in no digest.

The BLAS thread count moves the last bits of the node sums (the measure,
pointwise, traces and spectral groups differ between one and two threads), so
the script sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
where they are unset, before numpy is imported.  Two checkouts compare bit for
bit only at equal thread counts.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import os
import sys
import weakref
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from becqubit import (  # noqa: E402
    ToyModel,
    cli,
    build_decoherence_trace,
    build_rate_trace,
    decoherence,
    default_config,
    effective_spectral_density,
    find_crossover,
    measure,
    model_from_config,
    rate,
    rate_from_spectrum,
    scan,
    toy_critical_s,
    toy_rate,
    toy_rate_trace,
)
from becqubit import dynamics, engine  # noqa: E402
from becqubit.dynamics import HORIZON_CAPS  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import random_config  # noqa: E402

N_DRAWS = 30
SEED = 20120731  # the seed of the tests' rng fixture
POINTWISE_T0 = (0.3, 7.0, 90.0, 400.0, 710.0, 1420.0)
SPECTRAL_DENSITY_LOWS = (1e-5, 1e-3, 1e2)  # rad/s

CLI_CALLS = [
    ["rate"],
    ["rate", "--t-max-t0", "50"],
    ["decoherence"],
    ["decoherence", "--t-max-t0", "50"],
    ["rate", "--t-max-t0", "0"],
    ["rate", "--points", "1"],
    ["measure"],
    ["measure", "--dimension", "2", "--t-max-t0", "120"],
    ["crossover", "--tol-arb", "2e-2"],
    ["crossover", "--tol-arb", "2e-2", "--a-b-max-arb", "0.01"],
    ["sweep", "--axis", "a_B", "--grid", "0.5,1.0"],
    ["sweep", "--axis", "L", "--grid", "50,100"],
    ["sweep", "--axis", "a_B", "--grid", ","],
    ["spectrum"],
    ["spectrum", "--fit-lo-per-s", "1e3"],
    ["verify-pairs", "--pairs", "100", "--t-max-t0", "300"],
    ["measure", "--l-nm", "abc"],
]

CLI_TOY_CALLS = [
    ["toy"],
    ["toy", "--critical"],
]


CERTIFIED = []  # the refine level of every value engine._converged returned, in order
NODES = []  # the node count of every distinct node set engine._converged was given, in order
SEEN = {}  # id -> weak reference of each node set counted in NODES; a freed one's id may be reused
ENDS = []  # the rate evaluations of every interior interval end dynamics._sign_change solved


def _count_levels(converged):
    """converged, recording in CERTIFIED the last refine level its node sets
    came from and in NODES the size of every node set it was given that none
    was given before.  The refine level is the node-set factory's last
    argument, nodes(refine) or, in older checkouts, node_set(s, refine)."""

    def counted(node_set, s, kind, failure):
        built = []

        def recording(*args):
            built.append(args[-1])
            nodes = node_set(*args)
            ref = SEEN.get(id(nodes))
            if ref is None or ref() is not nodes:
                SEEN[id(nodes)] = weakref.ref(nodes)
                NODES.append(len(nodes.coeff))
            return nodes

        value = converged(recording, s, kind, failure)
        if built:  # s = 0 builds none
            CERTIFIED.append(built[-1])
        return value

    return counted


def _count_evaluations(sign_change):
    """sign_change, recording in ENDS how many values each solve over a
    nonempty bracket evaluated."""

    def counted(value, lo, hi):
        tested = []
        t = sign_change(lambda t: tested.append(t) or value(t), lo, hi)
        if lo < hi:
            ENDS.append(len(tested))
        return t

    return counted


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()
        self.points = 0
        self.raised = 0
        self.levels = collections.Counter()  # values certified at each refine level
        self.nodes = 0  # nodes of the node sets built for them
        self.ends = []  # rate evaluations of each interior interval end

    def add(self, value):
        data = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
        self._h.update(data + b"\0")

    def run(self, fn, *args):
        """Digest fn(self, *args), or the exception it raises."""
        self.points += 1
        before, built, ends = len(CERTIFIED), len(NODES), len(ENDS)
        try:
            fn(self, *args)
        except Exception as exc:
            self.raised += 1
            self.add(f"{type(exc).__name__}: {exc}")
        self.levels.update(CERTIFIED[before:])
        self.nodes += sum(NODES[built:])
        self.ends += ENDS[ends:]

    def hexdigest(self) -> str:
        return self._h.hexdigest()


CROSSOVER_RUNS = [(1, {}), (2, {}), (3, {}), (3, {"L": 50e-9}), (3, {"L": 100e-9}), (3, {"tau": 30e-9}), (3, {"tau": 60e-9})]


def crossover(d: Digest, dimension: int, overrides: dict, evaluations: list):
    r = find_crossover(dimension, default_config(**overrides))
    d.add((r.dimension, r.a_crit, r.bracket, r.evaluations))
    evaluations.append(r.evaluations)


def measure_and_scan(d: Digest, model):
    r = measure(model)
    d.add((r.N, r.N_blp, r.intervals, r.t_max_used, sorted(r.diagnostics.items())))
    d.add(scan(model).cells)


def scan_trace(d: Digest, model):
    trace = scan(model).trace
    d.add(trace.gamma)
    d.add(trace.rel_tol)


def pointwise(d: Digest, model, t_t0: float):
    t = t_t0 * model.t0
    d.add((rate(model, t), decoherence(model, t)))


def traces(d: Digest, model):
    t_max = HORIZON_CAPS[model.dimension] * model.t0
    trace = build_rate_trace(model, t_max)
    d.add(trace.gamma)
    d.add(trace.rel_tol)
    d.add(build_decoherence_trace(model, t_max).Gamma)


def toy(d: Digest, omega_c: float):
    d.add(toy_critical_s(omega_c))


def toy_trace(d: Digest, s: float):
    times, gamma = toy_rate_trace(ToyModel(s=s, omega_c=1.0), 64.0, 501)  # the CLI defaults
    d.add(times)
    d.add(gamma)


def toy_point(d: Digest, s: float, t: float):
    d.add(toy_rate(ToyModel(s=s, omega_c=1.0), t))


def spectral_point(d: Digest, model, t_t0: float):
    d.add(rate_from_spectrum(model, t_t0 * model.t0))


def spectral_density(d: Digest, model, omega_lo: float):
    profile = effective_spectral_density(model, np.geomspace(omega_lo, 1e5 * omega_lo, 200))
    d.add(profile.J)
    d.add(profile.s_fit)


def cli_call(d: Digest, argv: list[str], header: bool = True):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    if not header:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), lines)
    d.add((argv, "".join(lines), err.getvalue(), code))


def main() -> int:
    engine._converged = _count_levels(engine._converged)
    dynamics._sign_change = _count_evaluations(dynamics._sign_change)
    groups = {}

    d = groups["crossover"] = Digest()
    evaluations = []
    for dimension, overrides in CROSSOVER_RUNS:
        d.run(crossover, dimension, overrides, evaluations)

    rng = np.random.default_rng(SEED)
    draws = [model_from_config(random_config(rng)) for _ in range(N_DRAWS)]
    d = groups["measure"] = Digest()
    for model in draws:
        d.run(measure_and_scan, model)

    d = groups["scan_traces"] = Digest()
    for model in draws:
        d.run(scan_trace, model)

    d = groups["pointwise"] = Digest()
    for model in draws:
        for t_t0 in POINTWISE_T0:
            d.run(pointwise, model, t_t0)

    d = groups["traces"] = Digest()
    for dimension in (1, 2, 3):
        for config in (default_config(dimension=dimension, a_B=0.0), default_config(dimension=dimension)):
            d.run(traces, model_from_config(config))

    d = groups["toy"] = Digest()
    for omega_c in (1.0, 10.0):
        d.run(toy, omega_c)

    d = groups["spectral"] = Digest()
    for dimension in (1, 2, 3):
        for config in (default_config(dimension=dimension, a_B=0.0), default_config(dimension=dimension)):
            for t_t0 in (0.5, 5.0, 60.0):
                d.run(spectral_point, model_from_config(config), t_t0)

    d = groups["spectral_density"] = Digest()
    for dimension in (1, 2, 3):
        for config in (default_config(dimension=dimension, a_B=0.0), default_config(dimension=dimension)):
            for omega_lo in SPECTRAL_DENSITY_LOWS:
                d.run(spectral_density, model_from_config(config), omega_lo)

    d = groups["toy_spectral"] = Digest()
    for s in (2.0, 1.0, 2.5, 3.0):
        d.run(toy_trace, s)
    for s in (1.0, 2.5, 3.0):
        for t in (0.5, 2.0, 9.0, 40.0):
            d.run(toy_point, s, t)

    d = groups["cli"] = Digest()
    for argv in CLI_CALLS:
        d.run(cli_call, argv)

    d = groups["cli_rows"] = Digest()
    for argv in CLI_CALLS:
        d.run(cli_call, argv, False)

    d = groups["cli_toy"] = Digest()
    for argv in CLI_TOY_CALLS:
        d.run(cli_call, argv)

    for name, digest in groups.items():
        print(f"{name:<12} {digest.hexdigest()}  ({digest.raised} of {digest.points} points raised)")
    runs = ", ".join(f"{dim}D " + (" ".join(f"{k}={v * 1e9:g} nm" for k, v in ov.items()) or "default") for dim, ov in CROSSOVER_RUNS)
    print(f"crossover evaluations: {evaluations} ({runs})")
    for name, digest in groups.items():
        levels = ", ".join(f"refine {k}: {n}" for k, n in sorted(digest.levels.items())) or "none"
        print(f"{name:<12} certified values: {levels}")
        print(f"{name:<12} nodes built: {digest.nodes}")
        if digest.ends:
            print(f"{name:<12} interior ends: {len(digest.ends)}, rate evaluations: {sum(digest.ends)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
