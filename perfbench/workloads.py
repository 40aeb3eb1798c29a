"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one timed
round of operations in ``run``, and checks a round's outputs in ``check``
against references computed apart from the program (see ``reference.py``).
``build`` (fresh per-round objects) and ``finish`` run outside the timed
region. Program functions are
always reached through their module attribute (``sampler.dirac_sample``), so
the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import statistics
import time
from types import SimpleNamespace

import numpy as np

import reference as ref
from dirac import cli, core, degrade, denoise, sampler, schedule, sdp, verify

# Prior and noise settings every workload uses: the package defaults, written
# out here so that the references do not read them from the program.
LENGTH_SCALE = 2.0
JITTER = 1e-4
PRIOR_MEAN = 0.5
SIGMA_MIN = 0.01
SIGMA_MAX = 0.05

# Tolerances of the reference checks, and the size of the perturbation each
# negative control applies (always well above the tolerance).
POSTERIOR_TOL = 1e-8
POSTERIOR_CONTROL = 1e-6
GRADIENT_TOL = 1e-4  # criterion 08's tolerance on finite differences
GUIDANCE_TOL = 1e-6
TABLE_TOL = 1e-12
CONSISTENCY_TOL = 1e-6  # the transitivity suite's own tolerance


class Workload:
    name = ""
    WARMUP_ROUNDS = 0  # untimed rounds before the timed ones, where a round is short

    def build(self, state) -> None:
        """Fresh per-round objects (process, oracle), so no round starts warm."""

    def finish(self, state, output):
        return output


def _posterior_checks(checks, state, traj, steps, rng):
    """Recorded clean-image estimates against a numpy posterior mean."""
    shape = state.proc.shape
    cov = ref.se_covariance(shape, LENGTH_SCALE, JITTER)
    mean = np.full(cov.shape[0], PRIOR_MEAN)
    worst = control = 0.0
    for k in steps:
        step = traj.steps[k]
        m, offset = ref.probe_operator(state.proc, step.t, core.Signal, shape)
        noise = ref.sigma(step.t, SIGMA_MIN, SIGMA_MAX)
        expected = ref.posterior_mean(cov, mean, m, offset, noise, step.iterate.values) - mean
        got = step.estimate.values - mean
        worst = max(worst, ref.relative_error(got, expected))
        control = max(control, ref.relative_error(ref.nudge(got, POSTERIOR_CONTROL, rng), expected))
    name = f"posterior mean at steps {list(steps)}"
    checks.add(name, worst <= POSTERIOR_TOL, f"relative error {worst:.3g}")
    checks.control(name, control <= POSTERIOR_TOL)
    return worst


def _same_trajectory(a: sampler.Trajectory, b: sampler.Trajectory) -> bool:
    if len(a.steps) != len(b.steps) or a.aborted != b.aborted:
        return False
    for s, r in zip(a.steps, b.steps):
        scalars = np.array([[s.t, s.eps_dc, s.psnr_vs_truth, s.prior_nll],
                            [r.t, r.eps_dc, r.psnr_vs_truth, r.prior_nll]])
        if not (np.array_equal(scalars[0], scalars[1], equal_nan=True)
                and np.array_equal(s.iterate.values, r.iterate.values)
                and np.array_equal(s.estimate.values, r.estimate.values)):
            return False
    return np.array_equal(a.output.values, b.output.values)


class Sample32(Workload):
    """One cold 50-step oracle trajectory on 32x32 inpainting, as `dirac sample` runs it."""

    name = "sample-32"
    CONFIG = ("[prior]\nshape = 32x32\n\n[process]\nkind = inpaint\n\n"
              "[sampler]\ndelta_t = 0.02\nseed = {seed}\nmeasurement_seed = {seed}\n\n"
              "[output]\ndir = {out}\n")

    def setup(self, seed, tracer, work):
        path = work / f"{self.name}-{seed}.ini"
        path.write_text(self.CONFIG.format(seed=seed, out=work / f"{self.name}-out"))
        config = cli.load_config(str(path))
        state = SimpleNamespace(tracer=tracer, cli_config=config, prior=cli.build_prior(config),
                                noise=cli.build_noise(config),
                                config=cli.build_sampler_config(config))
        self.build(state)
        rng = core.RandomSource(config["sampler"]["measurement_seed"])
        state.truth = core.prior_sample(state.prior, rng.split(0))
        state.y_tilde = sdp.sdp_sample(state.proc, state.noise, state.truth, 1.0, rng.split(1))
        return state

    def build(self, state):
        state.proc = state.tracer.process(cli.build_process(state.cli_config, state.prior))
        state.den = state.tracer.denoiser(
            denoise.OracleDenoiser(state.prior, state.proc, state.noise))

    def _sample(self, state):
        return sampler.dirac_sample(state.den, state.proc, state.noise, state.y_tilde,
                                    state.config, truth=state.truth, prior=state.prior)

    def run(self, state):
        return self._sample(state)

    def finish(self, state, traj):
        start = time.perf_counter()
        warm = self._sample(state)
        warm_s = time.perf_counter() - start
        state.den = None  # free the gain cache before the next round builds its own
        return SimpleNamespace(traj=traj, warm_identical=_same_trajectory(traj, warm),
                               warm_s=warm_s)

    def operations(self, out):
        return 1, int(out.traj.aborted)

    def same(self, a, b):
        return _same_trajectory(a.traj, b.traj)

    def check(self, state, out, checks, rng):
        traj = out.traj
        checks.add("50 steps, finite output", len(traj.steps) == 50 and not traj.aborted
                   and bool(np.all(np.isfinite(traj.output.values))))
        checks.add("warm rerun bit-identical", out.warm_identical)
        nudged = dataclasses.replace(
            traj, output=traj.output.with_values(np.nextafter(traj.output.values, np.inf)))
        checks.control("warm rerun bit-identical", _same_trajectory(traj, nudged))
        last = len(traj.steps) - 1
        _posterior_checks(checks, state, traj, (0, last // 2, last), rng)

    def figures(self, state, rounds):
        return {"sample_s": (statistics.median(r.seconds for r in rounds), "s"),
                "warm_rerun_s": (statistics.median(r.output.warm_s for r in rounds), "s")}


class Sweep16(Workload):
    """A perception-distortion sweep on 16x16 blur with guidance on."""

    name = "sweep-16"
    WARMUP_ROUNDS = 1
    RUNS = 200
    DELTA_T = 0.05
    ETA = 1.0

    def setup(self, seed, tracer, work):
        config = sampler.SamplerConfig(delta_t=self.DELTA_T, eta=self.ETA,
                                       guidance_mode="std_scaled", seed=1000 * seed)
        state = SimpleNamespace(tracer=tracer, seed=seed, config=config,
                                prior=core.squared_exponential_prior((16, 16)),
                                noise=sdp.NoiseSchedule())
        self.build(state)
        return state

    def build(self, state):
        state.proc = state.tracer.process(degrade.GaussianBlurProcess((16, 16)))
        state.den = state.tracer.denoiser(
            denoise.OracleDenoiser(state.prior, state.proc, state.noise))

    def run(self, state):
        # Keep the sweep's first trajectory for the checks and count every
        # trajectory it runs; the sweep itself reports only means.
        inner = verify.dirac_sample
        seen = SimpleNamespace(first=None, y_tilde=None, count=0, aborted=0)

        def observed(den, proc, noise, y_tilde, config, **kwargs):
            traj = inner(den, proc, noise, y_tilde, config, **kwargs)
            if seen.first is None:
                seen.first, seen.y_tilde = traj, y_tilde
            seen.count += 1
            seen.aborted += traj.aborted
            return traj

        verify.dirac_sample = observed
        try:
            report = verify.perception_distortion_sweep(
                state.den, state.proc, state.noise, state.prior, state.config,
                runs=self.RUNS, base_seed=state.seed)
        finally:
            verify.dirac_sample = inner
        return SimpleNamespace(report=report, seen=seen)

    def operations(self, out):
        return out.seen.count, out.seen.aborted

    def same(self, a, b):
        return (np.array_equal(a.report.psnr_mean, b.report.psnr_mean)
                and np.array_equal(a.report.nll_mean, b.report.nll_mean))

    def check(self, state, out, checks, rng):
        report, first = out.report, out.seen.first
        steps = round(1.0 / self.DELTA_T)
        checks.add(f"{self.RUNS} trajectories of {steps} steps",
                   out.seen.count == self.RUNS and len(report.ts) == steps
                   and bool(np.all(np.isfinite(report.psnr_mean))))
        curve = np.asarray(report.psnr_mean)

        def interior(c):
            return 0 < int(np.argmax(c)) < len(c) - 1

        checks.add("distortion peak interior", interior(curve),
                   f"peak at t={report.ts[int(np.argmax(curve))]:.3g}")
        raised = curve.copy()
        raised[-1] = curve.max() + 0.01
        checks.control("distortion peak interior", interior(raised))
        _posterior_checks(checks, state, first, (0, steps // 2, steps - 1), rng)
        self._guidance_check(checks, state, out, rng)

    def _guidance_check(self, checks, state, out, rng):
        """Guidance term against central differences of ||y~ - A_1(Phi(y, t))||^2."""
        # The last round's oracle, warm at every severity of the grid.
        den, proc, y_tilde = state.den, state.proc, out.seen.y_tilde
        s1 = ref.sigma(1.0, SIGMA_MIN, SIGMA_MAX)
        worst = control = 0.0
        h = 1e-3
        steps = out.seen.first.steps
        for step in (steps[0], steps[len(steps) // 2]):
            y, t = step.iterate, step.t
            tau = max(t - self.DELTA_T, 0.0)
            tau = 0.0 if tau < 1e-12 else tau
            scale = self.ETA / (2 * s1 * s1) * (ref.sigma(tau, SIGMA_MIN, SIGMA_MAX) ** 2
                                                - ref.sigma(t, SIGMA_MIN, SIGMA_MAX) ** 2)
            term = sampler.guidance_term(den, proc, state.noise, t, self.DELTA_T, y, y_tilde,
                                         "std_scaled", self.ETA).values
            grad = term / scale

            def f(values):
                est = den.estimate(y.with_values(values), t)
                r = y_tilde.values - proc.apply(1.0, est).values
                return float(r @ r)

            for k in range(4):
                v = rng.standard_normal(y.n)
                v /= np.linalg.norm(v)
                fd = (f(y.values + h * v) - f(y.values - h * v)) / (2 * h)
                err = abs(grad @ v - fd) / np.linalg.norm(grad)
                worst = max(worst, err)
                if k == 0:
                    off = grad + 1e-4 * np.linalg.norm(grad) * v
                    control = max(control, abs(off @ v - fd) / np.linalg.norm(off))
        checks.add("guidance gradient vs central differences", worst <= GUIDANCE_TOL,
                   f"relative error {worst:.3g}")
        checks.control("guidance gradient vs central differences", control <= GUIDANCE_TOL)

    def figures(self, state, rounds):
        return {"sweep_traj_per_s": (self.RUNS / statistics.median(r.seconds for r in rounds),
                                     "trajectories/s")}


class Fit8(Workload):
    """A 101-candidate distance table and greedy schedule, then affine training, at 8x8."""

    name = "fit-8"
    WARMUP_ROUNDS = 1
    SHAPE = (8, 8)
    CANDIDATES = 101
    KNOTS = 20
    DATASET = 8
    STEPS = 200
    BATCH = 32
    BINS = 8
    STEP_SIZE = 1e-5

    def setup(self, seed, tracer, work):
        prior = core.squared_exponential_prior(self.SHAPE)
        rng = core.RandomSource(seed)
        dataset = [core.prior_sample(prior, rng.split(i)) for i in range(self.DATASET)]
        state = SimpleNamespace(tracer=tracer, seed=seed, prior=prior, dataset=dataset,
                                noise=sdp.NoiseSchedule())
        self.build(state)
        return state

    def build(self, state):
        # The inpainting process caches masks by width; a fresh one per round.
        state.proc = state.tracer.process(degrade.GaussianMaskInpaintProcess(self.SHAPE))

    def run(self, state):
        start = time.perf_counter()
        table = schedule.build_distance_table(state.proc, state.dataset,
                                              n_candidates=self.CANDIDATES)
        greedy = schedule.greedy_schedule(table, self.KNOTS)
        mid = time.perf_counter()
        # Criterion 08's settings: incremental loss with full clean-domain
        # supervision (delta_t = 1), 8 bins, batch 32, step size 1e-5.
        model = denoise.AffineDenoiser.initialized(state.prior, n_bins=self.BINS)
        report = denoise.train_affine(
            model, state.proc, state.noise, state.prior, loss_kind="incremental",
            delta_t=1.0, steps=self.STEPS, step_size=self.STEP_SIZE, batch_size=self.BATCH,
            rng=core.RandomSource(state.seed))
        end = time.perf_counter()
        return SimpleNamespace(table=table, greedy=greedy, model=model, report=report,
                               table_s=mid - start, train_s=end - mid)

    def operations(self, out):
        return 2, int(out.report.diverged)

    def same(self, a, b):
        return (np.array_equal(a.table.d, b.table.d) and a.greedy.knots == b.greedy.knots
                and a.report.losses == b.report.losses and np.array_equal(a.model.d, b.model.d))

    def check(self, state, out, checks, rng):
        self._table_checks(checks, state, out, rng)
        self._training_checks(checks, state, out, rng)

    def _table_checks(self, checks, state, out, rng):
        table, greedy = out.table, out.greedy
        d = table.d
        degraded = [np.array([state.proc.apply(float(t), x).values for x in state.dataset])
                    for t in table.candidates]
        worst = 0.0
        control = True
        for _ in range(30):
            i, j = sorted(rng.choice(table.size, size=2, replace=False))
            expected = ref.rmse_distance(degraded[i], degraded[j])
            worst = max(worst, abs(d[i, j] - expected) / expected)
            control = control and abs(d[i, j] * (1 + 1e-9) - expected) <= TABLE_TOL * expected
        checks.add("table entries vs numpy", worst <= TABLE_TOL, f"relative error {worst:.3g}")
        checks.control("table entries vs numpy", control)

        row = np.array(d[0])
        checks.add("table row 0 non-decreasing", ref.non_decreasing(row))
        k = table.size // 2
        row[k] = row[k + 1] * (1 + 1e-9)
        checks.control("table row 0 non-decreasing", ref.non_decreasing(row))

        g_max = ref.max_edge(d, ref.knot_indices(table.candidates, greedy.knots))
        uniform = np.linspace(0, table.size - 1, self.KNOTS + 2).round().astype(int)
        u_max = ref.max_edge(d, uniform)
        checks.add("greedy max edge <= uniform", g_max <= u_max,
                   f"greedy {g_max:.6g}, uniform {u_max:.6g}")
        checks.control("greedy max edge <= uniform", u_max * (1 + 1e-9) <= u_max)
        trace = list(greedy.max_edge_trace)
        checks.add("greedy trace non-increasing, ends at its max edge",
                   ref.non_increasing(trace) and trace[-1] == g_max)
        trace[-1] = trace[-2] * (1 + 1e-12)
        checks.control("greedy trace non-increasing, ends at its max edge",
                       ref.non_increasing(trace))

    def _training_checks(self, checks, state, out, rng):
        proc, noise, model = state.proc, state.noise, out.model
        stream = core.RandomSource(state.seed).split(1_000_003)
        batch, own_batch, operators, sigmas = [], [], [], []
        for j in range(6):
            sub = stream.split(j)
            x0 = core.prior_sample(state.prior, sub.split(0))
            t = float(sub.split(1).uniform())
            y = sdp.sdp_sample(proc, noise, x0, t, sub.split(2))
            batch.append((x0, y, t))
            own_batch.append((x0.values, y.values, min(int(self.BINS * t), self.BINS - 1)))
            operators.append(ref.probe_operator(proc, max(t - 1.0, 0.0), core.Signal,
                                                self.SHAPE)[0])
            sigmas.append(ref.sigma(t, SIGMA_MIN, SIGMA_MAX))
        d, c = model.d.copy(), model.c.copy()
        own = ref.incremental_loss(d, c, own_batch, operators, sigmas)
        program = denoise.loss_incremental(model, proc, noise, 1.0, batch)
        loss_err = abs(program - own) / own
        checks.add("loss vs numpy", loss_err <= 1e-10, f"relative error {loss_err:.3g}")
        checks.control("loss vs numpy", abs(program * (1 + 1e-8) - own) / own <= 1e-10)

        g_d, g_c = denoise.affine_loss_gradients(model, proc, noise, 1.0, batch)
        eps = 1e-6
        worst = control = 0.0
        for _, _, b in own_batch:
            i, k = rng.integers(0, model.n, size=2)
            for params, grad, idx in ((d, g_d, (b, i, k)), (c, g_c, (b, i))):
                old = params[idx]
                params[idx] = old + eps
                hi = ref.incremental_loss(d, c, own_batch, operators, sigmas)
                params[idx] = old - eps
                lo = ref.incremental_loss(d, c, own_batch, operators, sigmas)
                params[idx] = old
                fd = (hi - lo) / (2 * eps)
                worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), 1e-12))
                control = max(control, abs(fd - grad[idx] * (1 + 1e-3)) / max(abs(fd), 1e-12))
        checks.add("analytic gradients vs central differences", worst <= GRADIENT_TOL,
                   f"relative error {worst:.3g}")
        checks.control("analytic gradients vs central differences", control <= GRADIENT_TOL)

        losses = np.array(out.report.losses)
        window = self.STEPS // 10
        checks.add("loss finite and falling", not out.report.diverged
                   and len(losses) == self.STEPS and ref.loss_falls(losses, window),
                   f"{losses[:window].mean():.6g} -> {losses[-window:].mean():.6g}")
        flat = losses.copy()
        flat[-window:] += (losses[:window].mean() - losses[-window:].mean()) * (1 + 1e-9)
        checks.control("loss finite and falling", ref.loss_falls(flat, window))
        spoiled = losses.copy()
        spoiled[window] = np.nan
        checks.control("loss finite", ref.loss_falls(spoiled, window))

    def figures(self, state, rounds):
        train_s = statistics.median(r.output.train_s for r in rounds)
        return {"train_samples_per_s": (self.STEPS * self.BATCH / train_s, "samples/s"),
                "table_s": (statistics.median(r.output.table_s for r in rounds), "s")}


class Verify16(Workload):
    """`dirac verify --jobs 1` with all seven suites on the README's minimal 16x16 config."""

    name = "verify-16"
    CONFIG = ("[prior]\nshape = 16x16\nseed = 0\n\n[process]\nkind = inpaint\n"
              "anchor_seed = {seed}\n\n[sampler]\ndelta_t = 0.05\nmeasurement_seed = 11\n\n"
              "[output]\ndir = {out}\n")

    def setup(self, seed, tracer, work):
        path = work / f"{self.name}-{seed}.ini"
        out_dir = work / f"{self.name}-out"
        path.write_text(self.CONFIG.format(seed=seed, out=out_dir))
        config = cli.load_config(str(path))
        return SimpleNamespace(path=path, out_dir=out_dir, prior=cli.build_prior(config),
                               noise=cli.build_noise(config))

    def run(self, state):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["verify", "--config", str(state.path), "--jobs", "1",
                             "--out", str(state.out_dir)])
        return SimpleNamespace(code=code, printed=printed.getvalue())

    def finish(self, state, out):
        with open(state.out_dir / "verify_report.csv", newline="") as f:
            out.verdicts = {row["suite"]: row["result"] for row in csv.DictReader(f)}
        return out

    def operations(self, out):
        return len(out.verdicts), sum(v == "FAIL" for v in out.verdicts.values())

    def same(self, a, b):
        # Verdicts only: the tweedie suite's printed value depends on the
        # process's string-hash seed.
        return a.code == b.code and list(a.verdicts.items()) == list(b.verdicts.items())

    def check(self, state, out, checks, rng):
        failed = any(v == "FAIL" for v in out.verdicts.values())
        checks.add("report lists every suite; exit code matches verdicts",
                   list(out.verdicts) == list(cli.SUITES)
                   and set(out.verdicts.values()) <= {"PASS", "FAIL"}
                   and out.code == (cli.EXIT_FAIL if failed else cli.EXIT_OK))

        # The transitivity suite's pairwise verdicts, re-derived by lstsq on
        # the same stacked systems (same seeds and process as the suite).
        shape = (16, 16)
        proc = degrade.GaussianMaskInpaintProcess(shape)
        stream = core.RandomSource(11)
        worst = control = 0.0
        for i in range(10):
            sub = stream.split(i)
            x0 = core.prior_sample(state.prior, sub.split(0))
            t1, _, t3 = sorted(float(v) for v in sub.split(1).uniform(size=3))
            y1 = proc.apply(t1, x0)
            y3 = proc.transition(t1, t3, y1)
            m1, o1 = ref.probe_operator(proc, t1, core.Signal, shape)
            m3, o3 = ref.probe_operator(proc, t3, core.Signal, shape)
            worst = max(worst, ref.stacked_residual(m1, y1.values - o1, m3, y3.values - o3))
            if i == 0:
                bumped = y3.values - o3
                bumped[0] += 1e-3
                control = ref.stacked_residual(m1, y1.values - o1, m3, bumped)
        expected_pass = worst <= CONSISTENCY_TOL
        checks.add("transitivity pairs consistent by lstsq", expected_pass,
                   f"max residual {worst:.3g}")
        checks.control("transitivity pairs consistent by lstsq", control <= CONSISTENCY_TOL)
        state.lstsq_residual = worst

    def figures(self, state, rounds):
        return {"verify_s": (statistics.median(r.seconds for r in rounds), "s"),
                "transitivity_lstsq_residual": (state.lstsq_residual, "rms")}


WORKLOADS = {w.name: w for w in (Sample32, Sweep16, Fit8, Verify16)}
