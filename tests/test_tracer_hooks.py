"""The benchmark's tracer (perfbench/spans.py) still fits the package.

The tracer patches module attributes by name and passes a counting metric=
to build_distance_table, so renaming a patched attribute or breaking the
metric= contract would otherwise show only in a traced benchmark run.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from dirac import cli, core, degrade, denoise, sampler, schedule, sdp, verify
from dirac.core import RandomSource, prior_sample, squared_exponential_prior
from dirac.degrade import GaussianBlurProcess, GaussianMaskInpaintProcess

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes():
    """Every module-level and class-level binding the tracer could patch."""
    owners = [cli, core, degrade, denoise, sampler, schedule, sdp, verify,
              core.RandomSource, core.Signal]
    out = {id(owner): dict(vars(owner)) for owner in owners}
    out["SUITES"] = dict(cli.SUITES)
    return out


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_counts_metric_calls_and_restores_every_patch(spans):
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


def test_tracer_sees_every_sampler_term_once_per_step(spans):
    # dirac_sample must reach its terms and prior_nll through the sampler
    # module's names, or the benchmark's per-layer view loses them
    prior = squared_exponential_prior((6, 6))
    noise = sdp.NoiseSchedule()
    x0 = prior_sample(prior, RandomSource(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        proc = tracer.process(GaussianBlurProcess((6, 6)))
        den = tracer.denoiser(denoise.OracleDenoiser(prior, proc, noise))
        y_tilde = sdp.sdp_sample(proc, noise, x0, 1.0, RandomSource(1))
        config = sampler.SamplerConfig(delta_t=0.25, eta=0.5, guidance_mode="std_scaled")
        tracer.recording = True
        traj = sampler.dirac_sample(den, proc, noise, y_tilde, config, truth=x0, prior=prior)
        tracer.recording = False
    finally:
        tracer.uninstall()
    spans_by_name = Counter(tracer.names)
    assert len(traj.steps) == 4
    for name in ("sampler.incremental", "sampler.denoising", "sampler.guidance",
                 "core.prior_nll"):
        assert spans_by_name[name] == 4, name
    assert tracer.per_layer()["sampler.estimates_per_step"] == 1.0


@pytest.mark.parametrize("script", ["workloads.py", "spans.py"])
def test_benchmark_names_exist(script):
    # every `<module>.<attr>` the benchmark reads on a dirac module must still be there
    tree = ast.parse((PERFBENCH / script).read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"dirac.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dirac"
               for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    missing = sorted(f"{module}.{attr}" for module, attr in used
                     if not hasattr(modules[module], attr))
    assert not missing
