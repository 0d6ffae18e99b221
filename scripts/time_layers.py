#!/usr/bin/env python3
"""Per-layer timings at the horizon caps: median seconds, minor page faults
and traced peak bytes per call.

  PYTHONPATH=src python3 scripts/time_layers.py [--repeats 11]

For the default model of each dimension at its cap window (2000 points) it
times the layers of a scan and of measure, one at a time:

  omega nodes    the trace's node set (engine._spectral_node_set, laid out
                 for the grid)
  q nodes        the wavenumber node set at the cap (engine._node_set, refine 0)
  transform      engine._uniform_transform of kind rate and of kind gamma; the
                 line names the path (fold or bluestein), its FFT length and
                 the uniform panels
  spot check     engine._spot_check of the rate trace, its three references
                 computed each call (engine._window_values, not the cache)
  end solve      one measure interval end: dynamics._sign_change on the first
                 negative cell, then Gamma there, on the cell's own window
                 (engine._window_values; "-" when the default scan has no cell)

Calls run back to back after one warm-up call each; a fault count is the
process's minor faults (resource.getrusage ru_minflt) over the timed calls,
divided by their number.  The peak is the most memory tracemalloc saw held
at once during one more call after them, untimed, so that tracing costs the
timings nothing; it counts what the call allocates, its result included.
Like scripts/output_digest.py it sets the BLAS thread variables to 1 where
they are unset, before numpy is imported.  To compare two trees, run each
tree's own script, one after the other: the numbers drift with the host.
"""

import argparse
import os
import resource
import statistics
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from becqubit import default_config, dynamics, engine, model_from_config  # noqa: E402

N_POINTS = dynamics.DEFAULT_GRID


def timed(fn, repeats: int):
    """(median seconds, minor faults per call, traced peak bytes, last result) of
    fn() over repeats calls; the peak is taken over one more, untimed call."""
    fn()
    seconds = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), faults / repeats, peak, result


def transform_path(nodes) -> str:
    """'fold N' or 'bluestein M' with the FFT length, and the uniform panel count."""
    panels = (len(nodes.energy) - (engine.GRADED_LEVELS + 1) * engine.GL_NODES) // engine.GL_NODES
    if panels >= nodes.turns:
        return f"fold N={nodes.turns}, {panels} panels"
    return f"bluestein N={engine._fft_length(panels + N_POINTS - 1)}, {panels} panels"


def end_solve(model, times, cell):
    """One end of measure: the sign change of the rate in [t_lo, t_hi], then Gamma there."""
    t_lo, t_hi = times[cell[0] - 1], times[cell[0]]
    value = engine._window_values(model, t_hi)
    t = dynamics._sign_change(lambda t: value(t, "rate"), t_lo, t_hi)
    return t, value(t, "gamma")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=11, help="timed calls per layer")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    row = lambda layer, s, faults, peak, note="": print(
        f"  {layer:<18}{s * 1e3:9.2f} ms {faults:9.0f} faults {peak / 1e6:8.2f} MB peak  {note}"
    )
    for dimension in (3, 2, 1):
        model = model_from_config(default_config(dimension=dimension))
        times = np.linspace(0.0, dynamics.HORIZON_CAPS[dimension] * model.t0, N_POINTS)
        print(f"{dimension}D cap, {dynamics.HORIZON_CAPS[dimension]:g} t0, {N_POINTS} points")
        s, faults, peak, nodes = timed(lambda: engine._spectral_node_set(model, times[-1], step=times[1]), args.repeats)
        row("omega nodes", s, faults, peak, f"{len(nodes.energy)} nodes")
        s, faults, peak, q_nodes = timed(lambda: engine._node_set(model, times[-1] / model.t0), args.repeats)
        row("q nodes", s, faults, peak, f"{len(q_nodes.energy)} nodes")
        del q_nodes
        for kind in ("rate", "gamma"):
            s, faults, peak, values = timed(lambda: engine._uniform_transform(nodes, times, kind), args.repeats)
            row(f"transform {kind}", s, faults, peak, transform_path(nodes))
            if kind == "rate":
                gamma, floor = values, nodes.floor("rate")
        del nodes
        reference = lambda t: engine._window_values(model, t)(t, "rate")
        s, faults, peak, _ = timed(lambda: engine._spot_check(reference, times, gamma, "rate", floor), args.repeats)
        row("spot check", s, faults, peak, "3 references")
        cells = dynamics.negative_cells(gamma)
        if cells:
            s, faults, peak, _ = timed(lambda: end_solve(model, times, cells[0]), args.repeats)
            row("end solve", s, faults, peak, f"cell at {cells[0][0]}")
        else:
            print(f"  {'end solve':<18}{'-':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
