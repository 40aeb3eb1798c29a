"""The benchmark's tracer (perfbench/spans.py) still fits the package.

The tracer patches module attributes by name and passes a counting metric=
to build_distance_table, so renaming a patched attribute or breaking the
metric= contract would otherwise show only in a traced benchmark run.
"""

import importlib
from pathlib import Path

from dirac import cli, core, degrade, denoise, sampler, schedule, sdp, verify
from dirac.core import RandomSource, prior_sample, squared_exponential_prior
from dirac.degrade import GaussianMaskInpaintProcess

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes():
    """Every module-level and class-level binding the tracer could patch."""
    owners = [cli, core, degrade, denoise, sampler, schedule, sdp, verify,
              core.RandomSource, core.Signal]
    out = {id(owner): dict(vars(owner)) for owner in owners}
    out["SUITES"] = dict(cli.SUITES)
    return out


def test_tracer_counts_metric_calls_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = _attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _attributes() != before
        prior = squared_exponential_prior((6, 6))
        data = [prior_sample(prior, RandomSource(2).split(i)) for i in range(3)]
        proc = tracer.process(GaussianMaskInpaintProcess((6, 6)))
        tracer.recording = True
        schedule.build_distance_table(proc, data, n_candidates=11)
        tracer.recording = False
    finally:
        tracer.uninstall()
    layers = tracer.per_layer()
    assert layers["schedule.metric_calls"] == 10  # one call per row: N - 1
    assert layers["degrade.apply_calls"] == 33
    after = _attributes()
    for key, bindings in before.items():
        for name, value in bindings.items():
            assert after[key][name] is value, name
    assert after == before
