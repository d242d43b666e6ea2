"""The benchmark's tracer (``perfbench/tracer.py``) patches hawkesdecomp
names from outside the package: the layer functions ``decompose`` looks up
in ``search``, ``fit.residue_of``, the ``minimize`` imports, ``quad``, the
thread pool names and the CLI's io entry points.  These tests keep those
names and the counts they give in place."""

import importlib.util
from pathlib import Path

import pytest

from hawkesdecomp import fit
from hawkesdecomp.kernels import Exp
from hawkesdecomp.search import DecompositionConfig, decompose
from hawkesdecomp.simulate import HawkesModel, simulate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_decompose_counts_and_restores(tracer_module, monkeypatch):
    # the fits run their starts through fit._nelder_mead, not fit.minimize,
    # so the starts are counted here rather than by the tracer; decompose
    # fits each level in one search, through names the tracer does not wrap
    nelder_mead, starts_run = fit._nelder_mead, []

    def counted(objective, starts):
        starts_run.append(len(starts))
        return nelder_mead(objective, starts)

    monkeypatch.setattr(fit, "_nelder_mead", counted)
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer, cli=True)
    patched = list(tracer._patched)
    try:
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 1000.0, seed=3)
        decompose(events, DecompositionConfig(tau_max=5.0, resolution=20))
        counts = tracer.counts
        spans = [s["name"] for s in tracer.spans]
    finally:
        tracer.restore()
    assert counts.get("fit.objective_evals", 0) > 0
    # the 4 singles' 8 starts each; then 4 sums of 9, and K1 = EXP times each
    # family: 5 EXP, 4 PWL, 5 SQR and 6 SNS starts once the added amplitude
    # is dropped
    assert starts_run == [32, 56]
    assert "spectral.invert_to_kernel" in spans
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
