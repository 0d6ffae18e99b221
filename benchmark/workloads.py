"""The four workloads: set-up, one timed round, and the output checks.

Each workload is a closed loop with one caller in one process: every library
call waits for the previous one, and no thread or process is added.  A round
runs one set of inputs from `inputs.generate`.  `run` times each top-level
library call; `check` runs after the timed region and returns, per
operation, the reason it failed or None.  An exception from a call is a
failed operation, never a crash of the benchmark.

The library is called through its submodules (`analysis.find_crossover`,
not `becqubit.find_crossover`) so that the tracer's wrappers see the
outermost call too.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from becqubit import analysis, engine, params
from becqubit.constants import A_RB, BOHR_RADIUS

CROSSOVER_RANGE_OVER_ARB = (0.02, 0.05)  # acceptance criterion 3
CROSSOVER_AT_75NM = (0.034, 0.005)  # acceptance criterion 1, 3D
SPECTRAL_T_MAX_T0 = 14.0  # acceptance criterion 9's time range
SPECTRAL_RTOL = 1e-6
TRACE_END_RTOL = 1e-6  # of the trace scale
TOY_S_CRIT = (2.0, 0.05)  # acceptance criterion 5
MONOTONE_SLACK = 1e-12  # acceptance criterion 4


@dataclass
class Call:
    """One top-level library call of a round."""

    name: str
    seconds: float
    value: object = None
    error: str | None = None


def timed(name: str, fn, *args) -> Call:
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a failed call is a counted failure, not a crash
        return Call(name, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Call(name, time.perf_counter() - start, value=value)


def config_from(entry: dict) -> params.PhysicalConfig:
    """PhysicalConfig from the generated keys; regime warnings are not failures."""
    overrides = {}
    units = {
        "a_B_over_aRb": ("a_B", A_RB),
        "a_AB_a0": ("a_AB", BOHR_RADIUS),
        "L_nm": ("L", 1e-9),
        "tau_nm": ("tau", 1e-9),
        "n0_per_m3": ("n0", 1.0),
    }
    for key, (field, scale) in units.items():
        if key in entry:
            overrides[field] = entry[key] * scale
    if "dimension" in entry:
        overrides["dimension"] = int(entry["dimension"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", params.RegimeWarning)
        return params.default_config(**overrides)


def _failure(call: Call, problem: str | None) -> str | None:
    return call.error if call.error is not None else problem


# ---------------------------------------------------------------------------


class Crossover:
    """One 3D find_crossover at tol 1e-3 a_Rb: the paper's headline number."""

    def setup(self, inputs: dict) -> dict:
        return {
            "config": config_from(inputs),
            "L_nm": inputs["L_nm"],
            "tol": inputs["tol_over_aRb"] * A_RB,
            "dimension": inputs["dimension"],
        }

    def run(self, state: dict) -> list[Call]:
        return [
            timed(
                "find_crossover",
                analysis.find_crossover,
                state["dimension"],
                state["config"],
                state["tol"],
            )
        ]

    def check(self, state: dict, calls: list[Call]) -> list[str | None]:
        (call,) = calls
        if call.error is not None:
            return [call.error]
        a = call.value.a_crit_over_aRb
        lo, hi = CROSSOVER_RANGE_OVER_ARB
        if not lo < a < hi:
            return [f"a_crit = {a} a_Rb outside ({lo}, {hi})"]
        target, tol = CROSSOVER_AT_75NM
        if state["L_nm"] == 75.0 and abs(a - target) > tol:
            return [f"a_crit = {a} a_Rb at L = 75 nm, expected {target} +- {tol}"]
        return [None]


class Sweep:
    """One 12-point sweep of N over a_B in 3D, as scripts/run_figure_sweeps.py."""

    def setup(self, inputs: dict) -> dict:
        return {
            "config": config_from(inputs),
            "grid": [f * A_RB for f in inputs["a_B_grid_over_aRb"]],
        }

    def run(self, state: dict) -> list[Call]:
        return [timed("sweep", analysis.sweep, "a_B", state["grid"], state["config"])]

    def check(self, state: dict, calls: list[Call]) -> list[str | None]:
        """One entry per sweep point; a point the sweep recorded as an error fails."""
        (call,) = calls
        n = len(state["grid"])
        if call.error is not None:
            return [call.error] * n
        table = call.value
        out: list[str | None] = []
        for i, (N, diag) in enumerate(zip(table.N, table.diagnostics)):
            if diag.get("status") != "ok":
                out.append(f"point {i}: status {diag.get('status')}: {diag.get('error')}")
            elif not 0.0 <= N <= 1.0:
                out.append(f"point {i}: N = {N} outside [0, 1]")
            elif i > 0 and N < table.N[i - 1] - MONOTONE_SLACK:
                out.append(f"point {i}: N = {N} below the previous point {table.N[i - 1]}")
            else:
                out.append(None)
        if len(out) != n:
            out.extend(["sweep returned too few points"] * (n - len(out)))
        return out


class Pointwise:
    """rate then decoherence at seeded (config, t): the library-tour use."""

    def setup(self, inputs: dict) -> dict:
        draws = []
        for entry in inputs["draws"]:
            model = params.model_from_config(config_from(entry))
            draws.append((model, entry["t_over_t0"] * model.t0, entry["t_over_t0"]))
        return {"draws": draws}

    def run(self, state: dict) -> list[Call]:
        calls = []
        for model, t, _ in state["draws"]:
            calls.append(timed("rate", engine.rate, model, t))
            calls.append(timed("decoherence", engine.decoherence, model, t))
        return calls

    def check(self, state: dict, calls: list[Call]) -> list[str | None]:
        out: list[str | None] = []
        for (model, t, t_over_t0), rate_call, dec_call in zip(state["draws"], calls[::2], calls[1::2]):
            problem = None
            if rate_call.error is None:
                gamma = rate_call.value
                if not math.isfinite(gamma):
                    problem = f"rate({t_over_t0} t0) = {gamma}"
                elif t_over_t0 <= SPECTRAL_T_MAX_T0:
                    ref = engine.rate_from_spectrum(model, t)
                    if abs(ref - gamma) > SPECTRAL_RTOL * abs(gamma):
                        problem = f"rate({t_over_t0} t0) = {gamma}, rate_from_spectrum = {ref}"
            out.append(_failure(rate_call, problem))
            problem = None
            if dec_call.error is None:
                Gamma = dec_call.value
                if not (math.isfinite(Gamma) and Gamma >= 0.0):
                    problem = f"decoherence({t_over_t0} t0) = {Gamma}"
            out.append(_failure(dec_call, problem))
        return out


class Traces:
    """Rate and decoherence traces to the horizon cap in 1D, 2D, 3D, plus toy s_crit."""

    def setup(self, inputs: dict) -> dict:
        traces = []
        for entry in inputs["traces"]:
            model = params.model_from_config(config_from(entry))
            traces.append((model, entry["t_max_t0"] * model.t0))
        return {"traces": traces, "n_points": inputs["n_points"], "omega_c": inputs["omega_c"]}

    def run(self, state: dict) -> list[Call]:
        calls = []
        n = state["n_points"]
        for model, t_max in state["traces"]:
            calls.append(timed("build_rate_trace", engine.build_rate_trace, model, t_max, n))
            calls.append(timed("build_decoherence_trace", engine.build_decoherence_trace, model, t_max, n))
        for omega_c in state["omega_c"]:
            calls.append(timed("toy_critical_s", analysis.toy_critical_s, omega_c))
        return calls

    def check(self, state: dict, calls: list[Call]) -> list[str | None]:
        out: list[str | None] = []
        pairs = zip(state["traces"], calls[0::2], calls[1::2])
        for (model, _), rate_call, dec_call in pairs:
            problem = None
            if rate_call.error is None:
                g = rate_call.value.gamma
                ref = engine.rate(model, float(rate_call.value.times[-1]))
                if not np.all(np.isfinite(g)):
                    problem = "rate trace has non-finite values"
                elif abs(g[-1] - ref) > TRACE_END_RTOL * np.abs(g).max():
                    problem = f"rate trace ends at {g[-1]}, rate() gives {ref}"
            out.append(_failure(rate_call, problem))
            problem = None
            if dec_call.error is None:
                G, c = dec_call.value.Gamma, dec_call.value.coherence
                ref = engine.decoherence(model, float(dec_call.value.times[-1]))
                if not np.all(G >= 0.0):
                    problem = f"Gamma trace has negative values (min {G.min()})"
                elif not np.all((c > 0.0) & (c <= 1.0)):
                    problem = "coherence outside (0, 1]"
                elif abs(G[-1] - ref) > TRACE_END_RTOL * np.abs(G).max():
                    problem = f"Gamma trace ends at {G[-1]}, decoherence() gives {ref}"
            out.append(_failure(dec_call, problem))
        target, tol = TOY_S_CRIT
        for call in calls[2 * len(state["traces"]):]:
            problem = None
            if call.error is None and abs(call.value - target) > tol:
                problem = f"toy s_crit = {call.value}, expected {target} +- {tol}"
            out.append(_failure(call, problem))
        return out


WORKLOADS = {
    "crossover": Crossover(),
    "sweep": Sweep(),
    "pointwise": Pointwise(),
    "traces": Traces(),
}
