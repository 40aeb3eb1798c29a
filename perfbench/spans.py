"""Span tracing installed on the dirac package from outside it.

A ``Tracer`` keeps spans (name, start, end, parent) in memory while
``recording`` is on and writes them out when the run ends. Spans come from
three kinds of wrapper, all installed by the benchmark at run time:

- delegating proxies for the process and denoiser objects the benchmark
  passes in (``Tracer.process`` and ``Tracer.denoiser``);
- replacements for module attributes where their callers look them up, such
  as ``dirac.sampler.incremental_estimate`` as ``dirac_sample`` calls it and
  the entries of ``dirac.cli.SUITES``;
- a counting ``metric=`` passed to ``build_distance_table``.

``NullTracer`` has the same interface and adds nothing, so the untraced runs
call the program exactly as a user would.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from dirac import cli, core, degrade, denoise, sampler, schedule, sdp, verify

TRAJECTORY = "sampler.trajectory"

# span name -> the (module, attribute) pairs through which callers reach it
_FUNCTIONS = {
    "core.prior_build": [(core, "squared_exponential_prior"), (cli, "squared_exponential_prior")],
    "core.prior_nll": [(sampler, "prior_nll"), (verify, "prior_nll"), (cli, "prior_nll")],
    "sdp.sample": [(sdp, "sdp_sample"), (denoise, "sdp_sample"), (verify, "sdp_sample"),
                   (cli, "sdp_sample")],
    "sdp.marginal_score": [(sdp, "marginal_score"), (cli, "marginal_score")],
    "denoise.loss": [(denoise, "loss_incremental")],
    "denoise.grad": [(denoise, "affine_loss_gradients")],
    "sampler.incremental": [(sampler, "incremental_estimate")],
    "sampler.denoising": [(sampler, "denoising_term")],
    "sampler.guidance": [(sampler, "guidance_term")],
    "schedule.greedy": [(schedule, "greedy_schedule"), (cli, "greedy_schedule")],
    "verify.pair_consistency": [(verify, "check_pair_consistency"),
                                (cli, "check_pair_consistency")],
}
_PROCESS_CLASSES = ("GaussianBlurProcess", "GaussianMaskInpaintProcess", "BlendingProcess")

# per-layer metric -> span name whose summed duration it reports
_SPAN_SECONDS = {
    "core.prior_build_s": "core.prior_build",
    "core.prior_nll_s": "core.prior_nll",
    "degrade.apply_s": "degrade.apply",
    "degrade.as_matrix_s": "degrade.as_matrix",
    "degrade.lipschitz_x_s": "degrade.lipschitz_x",
    "denoise.estimate_cold_s": "denoise.estimate_cold",
    "denoise.estimate_warm_s": "denoise.estimate_warm",
    "denoise.vjp_s": "denoise.vjp",
    "denoise.loss_s": "denoise.loss",
    "denoise.grad_s": "denoise.grad",
    "sdp.sample_s": "sdp.sample",
    "sdp.marginal_score_s": "sdp.marginal_score",
    "sampler.incremental_s": "sampler.incremental",
    "sampler.denoising_s": "sampler.denoising",
    "sampler.guidance_s": "sampler.guidance",
    "schedule.table_s": "schedule.table",
    "schedule.greedy_s": "schedule.greedy",
    "verify.pair_consistency_s": "verify.pair_consistency",
    **{f"verify.{suite}_s": f"verify.{suite}" for suite in cli.SUITES},
}
# per-layer metric -> span name whose call count it reports
_SPAN_CALLS = {
    "degrade.apply_calls": "degrade.apply",
    "degrade.as_matrix_calls": "degrade.as_matrix",
    "denoise.estimate_cold_calls": "denoise.estimate_cold",
    "denoise.vjp_calls": "denoise.vjp",
    "sdp.sample_calls": "sdp.sample",
    "verify.pair_consistency_calls": "verify.pair_consistency",
}
# per-layer metric -> counter kept without spans, for calls too many to span
_COUNTERS = {
    "core.random_source_inits": "core.random_source_inits",
    "core.signal_inits": "core.signal_inits",
    "schedule.metric_calls": "schedule.metric_calls",
    "sampler.steps": "sampler.steps",
}


class NullTracer:
    """The untraced run: every hook hands back what it was given."""

    recording = False

    def process(self, proc):
        return proc

    def denoiser(self, den):
        return den


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._undo: list = []

    # --- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, key, n=1):
        if self.recording:
            self.counts[key] += n

    # --- hooks the workloads call ----------------------------------------

    def process(self, proc):
        return proc if isinstance(proc, ProcessProxy) else ProcessProxy(self, proc)

    def denoiser(self, den):
        return den if isinstance(den, DenoiserProxy) else DenoiserProxy(self, den)

    # --- module patches --------------------------------------------------

    def install(self):
        """Replace module attributes with traced versions until ``uninstall``."""
        for span, sites in _FUNCTIONS.items():
            real = getattr(*sites[0])
            traced = self.wrap(span, real)
            for module, attr in sites:
                self._patch(module, attr, traced)

        real_sample = sampler.dirac_sample

        @functools.wraps(real_sample)
        def traced_sample(*args, **kwargs):
            traj = self.call(TRAJECTORY, real_sample, *args, **kwargs)
            self.count("sampler.steps", len(traj.steps))
            return traj

        for module in (sampler, verify, cli):
            self._patch(module, "dirac_sample", traced_sample)

        real_table = schedule.build_distance_table

        @functools.wraps(real_table)
        def traced_table(proc, dataset, *args, **kwargs):
            metric = kwargs.pop("metric", schedule.rmse_metric)

            def counted(a, b):
                self.count("schedule.metric_calls")
                return metric(a, b)

            return self.call("schedule.table", real_table, proc, dataset, *args,
                             metric=counted, **kwargs)

        for module in (schedule, cli):
            self._patch(module, "build_distance_table", traced_table)

        # Objects the cli and verify modules construct for themselves.
        for name in _PROCESS_CLASSES:
            cls = getattr(degrade, name)
            self._patch(cli, name, lambda *a, _cls=cls, **k: self.process(_cls(*a, **k)))
        for module, name in ((cli, "OracleDenoiser"), (verify, "OracleDenoiser"),
                             (verify, "GroundTruthDenoiser")):
            cls = getattr(denoise, name)
            self._patch(module, name, lambda *a, _cls=cls, **k: self.denoiser(_cls(*a, **k)))
        for suite, fn in list(cli.SUITES.items()):
            self._patch(cli.SUITES, suite, self.wrap(f"verify.{suite}", fn))

        # Construction counts: too many calls to give each a span.
        self._count_calls(core.RandomSource, "__init__", "core.random_source_inits")
        self._count_calls(core.Signal, "__post_init__", "core.signal_inits")

    def uninstall(self):
        for target, attr, old in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._undo.clear()

    def _patch(self, target, attr, value):
        if isinstance(target, dict):
            self._undo.append((target, attr, target[attr]))
            target[attr] = value
        else:
            self._undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, value)

    def _count_calls(self, cls, attr, key):
        real = getattr(cls, attr)

        @functools.wraps(real)
        def counted(*args, **kwargs):
            self.count(key)
            return real(*args, **kwargs)

        self._patch(cls, attr, counted)

    # --- results ---------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Aggregate the recorded spans and counters into per-layer metrics."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        child_seconds = [0.0] * len(self.names)
        in_trajectory = [False] * len(self.names)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            duration = self.ends[i] - self.starts[i]
            seconds[name] += duration
            calls[name] += 1
            if parent >= 0:
                child_seconds[parent] += duration
                in_trajectory[i] = in_trajectory[parent] or self.names[parent] == TRAJECTORY
        estimates = ("denoise.estimate_cold", "denoise.estimate_warm")
        sampler_estimates = sum(
            1 for name, inside in zip(self.names, in_trajectory) if inside and name in estimates
        )
        step_self = sum(
            self.ends[i] - self.starts[i] - child_seconds[i]
            for i, name in enumerate(self.names) if name == TRAJECTORY
        )
        warm = calls[estimates[1]]
        all_estimates = calls[estimates[0]] + warm
        steps = self.counts["sampler.steps"]
        out = {metric: seconds[span] for metric, span in _SPAN_SECONDS.items()}
        out.update({metric: calls[span] for metric, span in _SPAN_CALLS.items()})
        out.update({metric: self.counts[key] for metric, key in _COUNTERS.items()})
        out["denoise.estimate_calls"] = all_estimates
        out["denoise.cache_hit_ratio"] = warm / all_estimates if all_estimates else 0.0
        out["sampler.estimates_per_step"] = sampler_estimates / steps if steps else 0.0
        out["sampler.step_self_s"] = step_self
        return out

    def write(self, path) -> None:
        """All spans as CSV: id, parent id (-1 for a root), name, start, end."""
        with open(path, "w") as f:
            f.write("id,parent,name,start,end\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{self.parents[i]},{name},{self.starts[i]!r},{self.ends[i]!r}\n")


class ProcessProxy:
    """Delegates to a degradation process, timing its public operator calls."""

    def __init__(self, tracer: Tracer, proc):
        self._tracer = tracer
        self._proc = proc

    def apply(self, t, x):
        return self._tracer.call("degrade.apply", self._proc.apply, t, x)

    def as_matrix(self, t):
        return self._tracer.call("degrade.as_matrix", self._proc.as_matrix, t)

    def lipschitz_x(self, t):
        return self._tracer.call("degrade.lipschitz_x", self._proc.lipschitz_x, t)

    def __getattr__(self, name):
        return getattr(self._proc, name)


class DenoiserProxy:
    """Delegates to a denoiser, telling cold estimates from warm ones.

    An estimate is cold when this denoiser has not been asked for the same
    severity before; the proxy tracks the severities it passes in and never
    looks at the denoiser's own caches.
    """

    def __init__(self, tracer: Tracer, den):
        self._tracer = tracer
        self._den = den
        self._seen: set[float] = set()

    def estimate(self, y, t):
        name = "denoise.estimate_warm" if t in self._seen else "denoise.estimate_cold"
        self._seen.add(t)
        return self._tracer.call(name, self._den.estimate, y, t)

    def vjp(self, y, t, v):
        return self._tracer.call("denoise.vjp", self._den.vjp, y, t, v)

    def __getattr__(self, name):
        return getattr(self._den, name)


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in a fixed order."""
    names = list(_SPAN_SECONDS) + list(_SPAN_CALLS) + list(_COUNTERS)
    names += ["denoise.estimate_calls", "denoise.cache_hit_ratio",
              "sampler.estimates_per_step", "sampler.step_self_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_step")):
        return "ratio"
    return "count"
