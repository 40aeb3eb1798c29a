"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion NN <name>: PASS/FAIL -- detail` line
(visible with -s, or in the failure output otherwise) and then asserts the
stated tolerance. Criteria are never weakened: where an implementation is
faithful but the stated number is not met, the test fails and the printed
detail records the measured value.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dirac import cli
from dirac.core import (
    RandomSource,
    mse,
    prior_sample,
    squared_exponential_prior,
)
from dirac.degrade import (
    BlendingProcess,
    GaussianBlurProcess,
    GaussianMaskInpaintProcess,
)
from dirac.denoise import (
    AffineDenoiser,
    GroundTruthDenoiser,
    OracleDenoiser,
    affine_loss_gradients,
    loss_denoising,
    loss_incremental,
    score_from_denoiser,
    train_affine,
)
from dirac.sampler import SamplerConfig, dirac_sample
from dirac.schedule import (
    DistanceTable,
    build_distance_table,
    greedy_schedule,
    max_edge_distance,
    uniform_schedule,
)
from dirac.sdp import NoiseSchedule, marginal_score, sdp_sample
from dirac.verify import (
    eps_dc,
    perception_distortion_sweep,
    verify_theorem_bounds,
    verify_theorem_dc,
)

SIGMA1_SQ = 0.0025


def _report(num, name, passed, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} -- {detail}")


def _processes(shape, prior):
    anchor = prior_sample(prior, RandomSource(99))
    return {
        "blur": GaussianBlurProcess(shape),
        "inpaint": GaussianMaskInpaintProcess(shape),
        "blending": BlendingProcess(anchor),
    }


def test_criterion_01_tweedie_identity():
    shape = (16, 16)
    prior = squared_exponential_prior(shape)
    noise = NoiseSchedule()
    rng = RandomSource(0)
    start = time.monotonic()
    worst = 0.0
    for pid, proc in enumerate(_processes(shape, prior).values()):
        oracle = OracleDenoiser(prior, proc, noise)
        for k in range(20):
            sub = rng.split(100 * pid + k)
            x0 = prior_sample(prior, sub.split(0))
            t = 0.05 + 0.95 * float(sub.split(1).uniform())
            y = sdp_sample(proc, noise, x0, t, sub.split(2))
            s2 = noise.sigma(t) ** 2
            lhs = s2 * score_from_denoiser(oracle, proc, noise, y, t).values
            mid = proc.apply(t, oracle.estimate(y, t)).values - y.values
            rhs = s2 * marginal_score(prior, proc, noise, y, t).values
            scale = max(np.linalg.norm(mid), 1e-30)
            worst = max(
                worst,
                np.linalg.norm(lhs - mid) / scale,
                np.linalg.norm(lhs - rhs) / scale,
            )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed <= 10.0
    _report(1, "tweedie-identity", ok, f"max rel err {worst:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 10.0


def test_criterion_02_data_consistency_harness():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    proc = GaussianMaskInpaintProcess(shape)
    noise = NoiseSchedule()
    x0 = prior_sample(prior, RandomSource(0))
    start = time.monotonic()
    report = verify_theorem_dc(proc, noise, x0, delta_t=0.05, n_seeds=256)
    elapsed = time.monotonic() - start
    worst = max(report.deviations)
    ok = report.passed and elapsed <= 60.0
    _report(2, "data-consistency", ok,
            f"max deviation {worst:.3g} (budget {report.deviation_budget:.3g}), "
            f"all verdicts consistent={all(v.consistent for v in report.verdicts)}, "
            f"{elapsed:.1f}s")
    assert report.passed
    assert elapsed <= 60.0


def test_criterion_03_eps_dc_noise_floor():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    noise = NoiseSchedule()
    lo, hi = 0.5 * SIGMA1_SQ, 2.0 * SIGMA1_SQ
    worst_ratio = 1.0
    for proc in (GaussianBlurProcess(shape), GaussianMaskInpaintProcess(shape)):
        oracle = OracleDenoiser(prior, proc, noise)
        sums = None
        runs = 100
        for r in range(runs):
            sub = RandomSource(r)
            x0 = prior_sample(prior, sub.split(0))
            y_tilde = sdp_sample(proc, noise, x0, 1.0, sub.split(1))
            traj = dirac_sample(oracle, proc, noise, y_tilde,
                                SamplerConfig(delta_t=0.1, seed=r))
            vals = np.array([s.eps_dc for s in traj.steps])
            sums = vals if sums is None else sums + vals
        means = sums / runs
        for m in means[1:]:  # every step after the first
            worst_ratio = max(worst_ratio, m / SIGMA1_SQ, SIGMA1_SQ / m)
    ok = worst_ratio <= 2.0
    _report(3, "eps-dc-noise-floor", ok,
            f"worst mean eps_dc ratio to 0.0025 is {worst_ratio:.3g} (limit 2)")
    assert ok


def test_criterion_04_perception_distortion_shape():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    proc = GaussianBlurProcess(shape)
    noise = NoiseSchedule()
    oracle = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.05, output_mode="final_iterate", seed=0)
    report = perception_distortion_sweep(oracle, proc, noise, prior, cfg, runs=30)
    ok = report.interior_peak and report.nll_improves_past_peak
    _report(4, "perception-distortion", ok,
            f"psnr peak {report.peak_psnr:.4g} at t={report.peak_t:.3g} "
            f"(final t {report.ts[-1]:.3g}), nll {report.peak_nll:.4g} -> "
            f"{report.final_nll:.4g}")
    assert report.interior_peak
    assert report.nll_improves_past_peak


def test_criterion_05_error_bound_audit():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    levels = (0.0, 0.05, 0.1)
    total_violations = 0
    details = []
    for name, proc in _processes(shape, prior).items():
        reports = verify_theorem_bounds(proc, prior, delta_t=0.1, eps_errs=levels, trials=200)
        for eps_err, report in zip(levels, reports):
            total_violations += report.violations
            details.append(f"{name}/eps={eps_err}: {report.violations} violations")
    ok = total_violations == 0
    _report(5, "error-bound", ok, "; ".join(details))
    assert total_violations == 0


def test_criterion_06_loss_upper_bound():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    noise = NoiseSchedule()
    violations = 0
    margin = math.inf
    for name, proc in (("blur", GaussianBlurProcess(shape)),
                       ("inpaint", GaussianMaskInpaintProcess(shape))):
        oracle = OracleDenoiser(prior, proc, noise)
        for b in range(50):
            sub = RandomSource(b)
            batch = []
            for j in range(8):
                item = sub.split(j)
                x0 = prior_sample(prior, item.split(0))
                t = float(item.split(1).uniform())
                batch.append((x0, sdp_sample(proc, noise, x0, t, item.split(2)), t))
            dt = float(sub.split(100).uniform())
            l_den = loss_denoising(oracle, proc, noise, batch)
            l_inc = loss_incremental(oracle, proc, noise, dt, batch)
            margin = min(margin, l_inc - l_den)
            violations += l_den > l_inc
    ok = violations == 0
    _report(6, "loss-upper-bound", ok,
            f"{violations} violating batches, min (incremental - denoising) margin {margin:.3g}")
    assert violations == 0


def _brute_force_minmax(table, m):
    n = table.size
    best = math.inf
    for interior in itertools.combinations(range(1, n - 1), m):
        best = min(best, max_edge_distance(table, (0, *interior, n - 1)))
    return best


def test_criterion_07_scheduler_optimality():
    shape = (6, 6)
    prior = squared_exponential_prior(shape)
    dataset = [prior_sample(prior, RandomSource(i)) for i in range(4)]
    tables = []
    for proc in (GaussianBlurProcess(shape), GaussianMaskInpaintProcess(shape)):
        for n_cand in (8, 10, 12):
            tables.append(build_distance_table(proc, dataset, n_candidates=n_cand))
    worst_factor = 1.0
    uniform_ok = trace_ok = True
    for table in tables:
        for m in range(1, 4):
            sched = greedy_schedule(table, m)
            greedy_max = sched.max_edge_trace[-1]
            uniform_max = max_edge_distance(
                table, [round(i * (table.size - 1) / (m + 1)) for i in range(m + 2)])
            uniform_ok &= greedy_max <= uniform_max + 1e-15
            trace = sched.max_edge_trace
            trace_ok &= all(trace[i + 1] <= trace[i] + 1e-15 for i in range(len(trace) - 1))
            optimum = _brute_force_minmax(table, m)
            if optimum > 0:
                worst_factor = max(worst_factor, greedy_max / optimum)
    exact = worst_factor <= 1.0 + 1e-12
    ok = uniform_ok and trace_ok and exact
    _report(7, "scheduler-optimality", ok,
            f"greedy<=uniform: {uniform_ok}; trace non-increasing: {trace_ok}; "
            f"worst greedy/brute-force factor {worst_factor:.4g} (exact match required)")
    assert uniform_ok
    assert trace_ok
    assert exact, (
        "greedy max-edge exceeds the brute-force min-max optimum "
        f"by factor {worst_factor:.4g}"
    )


@pytest.mark.slow
def test_criterion_08_training_correctness():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    proc = GaussianMaskInpaintProcess(shape)
    noise = NoiseSchedule()
    start = time.monotonic()

    # analytic gradients vs central finite differences
    model = AffineDenoiser.initialized(prior, n_bins=8)
    rng = RandomSource(0)
    batch = []
    for j in range(6):
        sub = rng.split(j)
        x0 = prior_sample(prior, sub.split(0))
        t = float(sub.split(1).uniform())
        batch.append((x0, sdp_sample(proc, noise, x0, t, sub.split(2)), t))
    g_d, g_c = affine_loss_gradients(model, proc, noise, 1.0, batch)
    grad_worst = 0.0
    eps = 1e-6
    coord_rng = RandomSource(7)
    for _ in range(6):
        b = int(coord_rng.uniform() * model.n_bins)
        i = int(coord_rng.uniform() * model.n)
        j = int(coord_rng.uniform() * model.n)
        for arr, g in ((model.d, g_d[b, i, j]), (model.c, g_c[b, i])):
            idx = (b, i, j) if arr is model.d else (b, i)
            old = arr[idx]
            arr[idx] = old + eps
            hi = loss_incremental(model, proc, noise, 1.0, batch)
            arr[idx] = old - eps
            lo = loss_incremental(model, proc, noise, 1.0, batch)
            arr[idx] = old
            fd = (hi - lo) / (2 * eps)
            grad_worst = max(grad_worst, abs(fd - g) / max(abs(fd), 1e-12))
    grad_ok = grad_worst <= 1e-4

    # train on the incremental objective (full clean-domain supervision) and
    # measure the oracle gap at bin centers
    model = AffineDenoiser.initialized(prior, n_bins=8)
    report = train_affine(model, proc, noise, prior, loss_kind="incremental",
                          delta_t=1.0, steps=12000, step_size=1e-5,
                          batch_size=32, rng=RandomSource(1))
    oracle = OracleDenoiser(prior, proc, noise)
    worst_gap = 0.0
    eval_rng = RandomSource(2)
    for b in range(8):
        t = (b + 0.5) / 8
        mse_model = mse_oracle = 0.0
        n_eval = 300
        for r in range(n_eval):
            sub = eval_rng.split(b * 100_000 + r)
            x0 = prior_sample(prior, sub.split(0))
            y = sdp_sample(proc, noise, x0, t, sub.split(1))
            mse_model += mse(model.estimate(y, t), x0)
            mse_oracle += mse(oracle.estimate(y, t), x0)
        worst_gap = max(worst_gap, (mse_model - mse_oracle) / mse_oracle)
    elapsed = time.monotonic() - start
    gap_ok = worst_gap <= 0.05
    ok = grad_ok and gap_ok and elapsed <= 300.0 and not report.diverged
    _report(8, "training-correctness", ok,
            f"gradient rel err {grad_worst:.3g}; worst bin-center oracle gap "
            f"{worst_gap:.3g} (limit 0.05); {elapsed:.0f}s")
    assert grad_ok
    assert not report.diverged
    assert elapsed <= 300.0
    assert gap_ok, f"trained oracle gap {worst_gap:.3g} exceeds 5%"


def test_criterion_09_operator_algebra():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    samples = [prior_sample(prior, RandomSource(i)) for i in range(100)]
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    pairs = [(a, b) for a in grid for b in grid if a < b]

    inpaint = GaussianMaskInpaintProcess(shape)
    inpaint_err = 0.0
    for t_lo, t_hi in pairs:
        for x in samples[:20]:
            via = inpaint.transition(t_lo, t_hi, inpaint.apply(t_lo, x))
            direct = inpaint.apply(t_hi, x)
            inpaint_err = max(inpaint_err, np.max(np.abs(via.values - direct.values)))
    # transitivity through an intermediate severity
    for x in samples[:20]:
        two_hop = inpaint.transition(0.5, 1.0, inpaint.transition(0.2, 0.5,
                                                                  inpaint.apply(0.2, x)))
        one_hop = inpaint.transition(0.2, 1.0, inpaint.apply(0.2, x))
        inpaint_err = max(inpaint_err, np.max(np.abs(two_hop.values - one_hop.values)))
    inpaint_ok = inpaint_err <= 1e-12

    blur = GaussianBlurProcess(shape)
    blur_err = 0.0
    for t_lo, t_hi in pairs:
        for x in samples:
            via = blur.transition(t_lo, t_hi, blur.apply(t_lo, x))
            direct = blur.apply(t_hi, x)
            blur_err = max(blur_err, np.max(np.abs(via.values - direct.values)))
    blur_ok = blur_err <= 1e-3

    matrix_err = 0.0
    for proc in _processes(shape, prior).values():
        for t in grid:
            m = proc.as_matrix(t)
            off = proc.offset(t)
            for x in samples[:10]:
                matrix_err = max(matrix_err, np.max(np.abs(
                    m @ x.values + off - proc.apply(t, x).values)))
    matrix_ok = matrix_err <= 1e-10

    ok = inpaint_ok and blur_ok and matrix_ok
    _report(9, "operator-algebra", ok,
            f"inpaint max err {inpaint_err:.3g} (<=1e-12: {inpaint_ok}); "
            f"blur composition max err {blur_err:.3g} (<=1e-3: {blur_ok}); "
            f"matrix-view max err {matrix_err:.3g} (<=1e-10: {matrix_ok})")
    assert inpaint_ok
    assert matrix_ok
    assert blur_ok, f"blur composition max-norm error {blur_err:.3g} exceeds 1e-3"


_CLI_BASE = """
[prior]
shape = 6x6
seed = 0

[process]
kind = inpaint

[sampler]
delta_t = 0.25
seed = 3
measurement_seed = 11

[verify]
suites = tweedie, transitivity
seeds = 16

[output]
dir = {out}
"""


def test_criterion_10_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_CLI_BASE.format(out=tmp_path / "out"))
    outputs = {}
    for command, artifact in (("sample", "trajectory.csv"),
                              ("verify", "verify_report.csv")):
        blobs = []
        for _ in range(2):
            assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_OK
            blobs.append((tmp_path / "out" / artifact).read_bytes())
        outputs[command] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    _report(10, "determinism", ok,
            f"sample identical: {outputs['sample']}; verify identical: {outputs['verify']}")
    assert ok


def test_criterion_11_telescoping_exactness():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    proc = GaussianMaskInpaintProcess(shape)
    noiseless = NoiseSchedule(0.0, 0.0)
    x0 = prior_sample(prior, RandomSource(0))
    y_tilde = proc.apply(1.0, x0)
    target = proc.apply(0.0, x0).values
    worst = 0.0
    for dt in (0.5, 0.1, 0.02):
        traj = dirac_sample(GroundTruthDenoiser(x0), proc, noiseless, y_tilde,
                            SamplerConfig(delta_t=dt, output_mode="final_iterate"))
        worst = max(worst, np.max(np.abs(traj.output.values - target)))
    ok = worst <= 1e-10
    _report(11, "telescoping", ok, f"max per-entry error {worst:.3g}")
    assert ok


def test_criterion_12_full_verify_runtime(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_CLI_BASE.replace("suites = tweedie, transitivity", "suites =")
                   .format(out=tmp_path / "out"))
    start = time.monotonic()
    rc = cli.main(["verify", "--config", str(cfg)])
    elapsed = time.monotonic() - start
    printed = capsys.readouterr().out
    ok = rc == cli.EXIT_OK and elapsed <= 600.0
    _report(12, "full-verify-runtime", ok,
            f"exit {rc}, {elapsed:.0f}s (limit 600s)")
    print(printed, end="")
    assert rc == cli.EXIT_OK
    assert elapsed <= 600.0
