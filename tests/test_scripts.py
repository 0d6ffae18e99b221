"""Smoke tests of the two tools that compare trees: scripts/time_layers.py and
the refine-level counting of scripts/output_digest.py.  Both reach into engine
internals, so a change to those can break them without any other test failing."""

import importlib
import os
import re
from pathlib import Path

import pytest

from becqubit import engine, rate

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def script(monkeypatch):
    """Import a script module by name.  The BLAS thread variables it sets, and
    the path entry output_digest.py adds, are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module


def test_time_layers_prints_every_layer(script, capsys):
    assert script("time_layers").main(["--repeats", "1"]) == 0
    out = capsys.readouterr().out
    for dimension in (3, 2, 1):
        assert f"{dimension}D cap" in out
    for layer in ("omega nodes", "q nodes", "transform rate", "transform gamma", "spot check"):
        assert len(re.findall(rf"^  {layer} +\d+\.\d+ ms", out, re.M)) == 3, layer
    assert re.search(r"^  end solve +\d+\.\d+ ms", out, re.M)  # the default 3D scan has a cell


def test_digest_counts_the_refine_levels_of_a_rate(script, monkeypatch, default_model):
    digest = script("output_digest")
    for name in ("CERTIFIED", "NODES"):
        monkeypatch.setattr(digest, name, [])
    monkeypatch.setattr(digest, "SEEN", {})
    monkeypatch.setattr(engine, "_converged", digest._count_levels(engine._converged))
    t = 5.0 * default_model.t0
    rate(default_model, t)
    assert digest.CERTIFIED == [0]
    assert digest.NODES == [len(engine._node_set(default_model, t / default_model.t0).coeff)]
