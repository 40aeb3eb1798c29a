"""Command-line entry point: schedule / train / sample / verify / sweep.

Configuration is a strict INI-style file (sections of `key = value`); every
key is known, range-checked, and any seed used anywhere is declared in the
config, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser

import numpy as np

from .core import (
    GaussianPrior,
    RandomSource,
    Signal,
    prior_nll,
    prior_sample,
    psnr,
    read_signal,
    squared_exponential_prior,
    write_pgm,
)
from .degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from .denoise import (
    AffineDenoiser,
    GroundTruthDenoiser,
    OracleDenoiser,
    load_model,
    save_model,
    train_affine,
)
from .sampler import SamplerConfig, dirac_sample, write_trajectory_csv
from .schedule import (
    build_distance_table,
    greedy_schedule,
    load_schedule,
    max_edge_distance,
    save_schedule,
)
from .sdp import NoiseSchedule, marginal_score, sdp_sample
from .verify import (
    check_pair_consistency,
    eps_dc,
    perception_distortion_sweep,
    robustness_sweep,
    verify_theorem_bounds,
    verify_theorem_dc,
)

__all__ = ["main", "load_config", "ConfigError", "SUITES"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def _positive(v):
    return v > 0


def _nonneg(v):
    return v >= 0


# section -> key -> (parser, validator or None, default)
_SCHEMA = {
    "prior": {
        "shape": (str, None, "16x16"),
        "length_scale": (float, _positive, 2.0),
        "jitter": (float, _positive, 1e-4),
        "mean": (float, None, 0.5),
        "seed": (int, _nonneg, 0),
    },
    "process": {
        "kind": (str, lambda v: v in ("blur", "inpaint", "blending"), "inpaint"),
        "w_min": (float, _positive, 0.3),
        "w_max": (float, _positive, 3.0),
        "k": (int, _positive, 4),
        "w_final": (float, _nonneg, 0.0),  # 0 = auto (0.2 * max side)
        "anchor_seed": (int, _nonneg, 1),
        "schedule_file": (str, None, ""),
    },
    "noise": {
        "sigma_min": (float, None, 0.01),
        "sigma_max": (float, None, 0.05),
    },
    "schedule": {
        "n_candidates": (int, lambda v: v >= 2, 101),
        "m": (int, _nonneg, 20),
        "dataset_size": (int, _positive, 8),
        "seed": (int, _nonneg, 0),
    },
    "training": {
        "loss": (str, lambda v: v in ("denoising", "incremental"), "denoising"),
        "delta_t": (float, lambda v: 0.0 <= v <= 1.0, 0.0),
        "bins": (int, _positive, 8),
        "steps": (int, _nonneg, 1000),
        "step_size": (float, _positive, 1e-5),
        "batch_size": (int, _positive, 32),
        "seed": (int, _nonneg, 0),
    },
    "sampler": {
        "delta_t": (float, None, 0.02),
        "t_stop": (float, None, 0.0),
        "eta": (float, None, 0.0),
        "guidance": (str, None, "none"),
        "output": (str, None, "posterior_mean"),
        "variant": (str, None, "LA"),
        "small_dt": (float, None, 0.0),  # 0 = unset
        "seed": (int, _nonneg, 0),
        "denoiser": (str, lambda v: v in ("oracle", "model", "truth"), "oracle"),
        "measurement_seed": (int, _nonneg, 0),
        "measurement_file": (str, None, ""),
        "model_file": (str, None, ""),
        "write_images": (str, lambda v: v in ("true", "false"), "false"),
    },
    "verify": {
        "suites": (str, None, ""),
        "seeds": (int, _positive, 64),
        "trials": (int, _positive, 50),
        "delta_t": (float, lambda v: 0.0 < v <= 1.0, 0.05),
        "pd_runs": (int, _positive, 30),
    },
    "sweep": {
        "kind": (str, lambda v: v in ("pd", "operator", "noise"), "pd"),
        "runs": (int, _positive, 30),
        "seed": (int, _nonneg, 0),
    },
    "output": {
        "dir": (str, None, "out"),
    },
}

_FILE_KEYS = (("process", "schedule_file"), ("sampler", "measurement_file"),
              ("sampler", "model_file"))


def load_config(path) -> dict:
    """Parse and validate a config file into {section: {key: value}}.

    Unknown sections or keys abort; every value is range-checked, the
    [noise] and [sampler] sections by building NoiseSchedule and
    SamplerConfig from them; every referenced file must exist.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = ConfigParser()
    try:
        with open(path) as f:
            parser.read_file(f)
    except Exception as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    config = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (cast, check, default) in keys.items():
            raw = parser.get(section, key, fallback=None)
            if raw is None:
                value = default
            else:
                try:
                    value = cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
                if check is not None and not check(value):
                    raise ConfigError(f"[{section}] {key} = {raw!r} out of range")
            config[section][key] = value
    for section, key in _FILE_KEYS:
        ref = config[section][key]
        if ref and not os.path.isfile(ref):
            raise ConfigError(f"[{section}] {key}: file not found: {ref}")
    for section, build in (("noise", build_noise), ("sampler", build_sampler_config)):
        try:
            build(config)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return config


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad shape {text!r}") from exc
    if not 1 <= len(dims) <= 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"bad shape {text!r}")
    return dims


def build_prior(config) -> GaussianPrior:
    c = config["prior"]
    return squared_exponential_prior(
        _parse_shape(c["shape"]),
        length_scale=c["length_scale"],
        jitter=c["jitter"],
        mean_value=c["mean"],
    )


def build_process(config, prior: GaussianPrior):
    c = config["process"]
    shape = prior.mean.shape
    schedule = load_schedule(c["schedule_file"]) if c["schedule_file"] else None
    if c["kind"] == "blur":
        return GaussianBlurProcess(shape, schedule=schedule, w_min=c["w_min"], w_max=c["w_max"])
    if c["kind"] == "inpaint":
        return GaussianMaskInpaintProcess(
            shape, schedule=schedule, k=c["k"], w_final=c["w_final"] or None
        )
    anchor = prior_sample(prior, RandomSource(c["anchor_seed"]))
    return BlendingProcess(anchor)


def build_noise(config) -> NoiseSchedule:
    c = config["noise"]
    return NoiseSchedule(sigma_min=c["sigma_min"], sigma_max=c["sigma_max"])


def build_sampler_config(config) -> SamplerConfig:
    c = config["sampler"]
    return SamplerConfig(
        delta_t=c["delta_t"],
        t_stop=c["t_stop"],
        eta=c["eta"],
        guidance_mode=c["guidance"],
        output_mode=c["output"],
        increment_variant=c["variant"],
        small_dt=c["small_dt"] or None,
        seed=c["seed"],
    )


def _prior_dataset(prior, size, seed):
    rng = RandomSource(seed)
    return [prior_sample(prior, rng.split(i)) for i in range(size)]


def cmd_schedule(config, out_dir, jobs) -> int:
    prior = build_prior(config)
    proc = build_process(config, prior)
    c = config["schedule"]
    dataset = _prior_dataset(prior, c["dataset_size"], c["seed"])
    table = build_distance_table(proc, dataset, n_candidates=c["n_candidates"])
    sched = greedy_schedule(table, c["m"])
    path = os.path.join(out_dir, "schedule.txt")
    save_schedule(sched, path, process_name=table.process_name,
                  metric_name=table.metric_name, n_candidates=c["n_candidates"])
    for i, d in enumerate(sched.max_edge_trace or ()):
        print(f"{i} interior knots: max edge distance {d:.9g}")
    if sched.warning:
        print(f"warning: {sched.warning}")
    print(f"wrote {path} ({len(sched.knots)} knots)")
    return EXIT_OK


def cmd_train(config, out_dir, jobs) -> int:
    prior = build_prior(config)
    proc = build_process(config, prior)
    noise = build_noise(config)
    c = config["training"]
    model = AffineDenoiser.initialized(prior, n_bins=c["bins"])
    report = train_affine(
        model, proc, noise, prior,
        loss_kind=c["loss"], delta_t=c["delta_t"], steps=c["steps"],
        step_size=c["step_size"], batch_size=c["batch_size"],
        rng=RandomSource(c["seed"]),
    )
    csv_path = os.path.join(out_dir, "train_loss.csv")
    with open(csv_path, "w") as f:
        f.write("step,loss\n")
        for i, loss in enumerate(report.losses):
            f.write(f"{i},{loss:.9g}\n")
    if report.diverged:
        print(f"training diverged at step {report.steps_run}; partial loss CSV at {csv_path}")
        return EXIT_FAIL
    model_path = os.path.join(out_dir, "model.bin")
    save_model(model, model_path)
    print(f"wrote {model_path} and {csv_path} ({report.steps_run} steps)")
    return EXIT_OK


def _make_denoiser(kind, prior, proc, noise, truth, model_file, out_dir):
    if kind == "oracle":
        return OracleDenoiser(prior, proc, noise)
    if kind == "truth":
        return GroundTruthDenoiser(truth)
    path = model_file or os.path.join(out_dir, "model.bin")
    if not os.path.isfile(path):
        raise ConfigError(f"model file not found: {path}")
    return load_model(path)


def cmd_sample(config, out_dir, jobs) -> int:
    prior = build_prior(config)
    proc = build_process(config, prior)
    noise = build_noise(config)
    c = config["sampler"]
    rng = RandomSource(c["measurement_seed"])
    truth = prior_sample(prior, rng.split(0))
    if c["measurement_file"]:
        y_tilde = read_signal(c["measurement_file"])
        if y_tilde.shape != proc.shape:
            raise ConfigError(
                f"measurement shape {y_tilde.shape} does not match process shape {proc.shape}"
            )
    else:
        y_tilde = sdp_sample(proc, noise, truth, 1.0, rng.split(1))
    den = _make_denoiser(c["denoiser"], prior, proc, noise, truth, c["model_file"], out_dir)
    traj = dirac_sample(den, proc, noise, y_tilde, build_sampler_config(config),
                        truth=truth, prior=prior)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(traj, csv_path)
    if c["write_images"] == "true":
        write_pgm(truth, os.path.join(out_dir, "truth.pgm"))
        write_pgm(y_tilde, os.path.join(out_dir, "measurement.pgm"))
        write_pgm(traj.output, os.path.join(out_dir, "output.pgm"))
    if traj.aborted:
        print(f"sampler aborted on non-finite iterate; diagnostics at {csv_path}")
        return EXIT_FAIL
    final_psnr = psnr(traj.output, truth)
    final_nll = prior_nll(prior, traj.output)
    final_dc = eps_dc(proc, y_tilde, traj.output)
    print(f"final psnr {final_psnr:.6g}  nll {final_nll:.6g}  eps_dc {final_dc:.6g}")
    print(f"wrote {csv_path} ({len(traj.steps)} steps)")
    return EXIT_OK


# --- verification suites -------------------------------------------------

# Noise levels of the robustness sweeps (verify suite and `dirac sweep`).
_NOISE_GRID = (0.0, 0.02, 0.04, 0.05, 0.06, 0.08)


def _processes_for_verify(config, prior):
    """Every family at its default parameters (build_process uses the config's)."""
    shape = prior.mean.shape
    anchor = prior_sample(prior, RandomSource(config["process"]["anchor_seed"]))
    return {
        "blur": GaussianBlurProcess(shape),
        "inpaint": GaussianMaskInpaintProcess(shape),
        "blending": BlendingProcess(anchor),
    }


def _suite_tweedie(config, prior, noise, procs):
    rng = RandomSource(100)
    worst = 0.0
    # Stream ids are fixed per process; a hash of the name would vary with
    # PYTHONHASHSEED and make the report differ between processes.
    for pid, proc in enumerate(procs.values()):
        oracle = OracleDenoiser(prior, proc, noise)
        for i in range(5):
            sub = rng.split(10 * pid + i)
            x0 = prior_sample(prior, sub.split(0))
            t = 0.05 + 0.9 * float(sub.split(1).uniform())
            y = sdp_sample(proc, noise, x0, t, sub.split(2))
            s2 = noise.sigma(t) ** 2
            post = oracle.estimate(y, t)
            lhs = proc.apply(t, post).values - y.values
            rhs = s2 * marginal_score(prior, proc, noise, y, t).values
            denom = max(np.linalg.norm(lhs), 1e-30)
            worst = max(worst, np.linalg.norm(lhs - rhs) / denom)
    return worst <= 1e-8, f"max relative error {worst:.3g}"


def _suite_thm36(config, prior, noise, procs, denoiser_factory=None):
    x0 = prior_sample(prior, RandomSource(7))
    report = verify_theorem_dc(
        procs["inpaint"], noise, x0, config["verify"]["delta_t"], config["verify"]["seeds"],
        denoiser_factory=denoiser_factory,
    )
    detail = (f"max deviation {max(report.deviations):.3g} "
              f"(budget {report.deviation_budget:.3g}), "
              f"{sum(v.consistent for v in report.verdicts)}/{len(report.verdicts)} consistent")
    return report.passed, detail


def _suite_thm34(config, prior, noise, procs):
    trials = config["verify"]["trials"]
    total_viol = 0
    for proc in procs.values():
        reports = verify_theorem_bounds(proc, prior, 0.05, (0.0, 0.05, 0.1), trials)
        total_viol += sum(report.violations for report in reports)
    return total_viol == 0, f"{total_viol} bound violations"


def _suite_transitivity(config, prior, noise, procs):
    proc = procs["inpaint"]
    rng = RandomSource(11)
    worst = 0.0
    for i in range(10):
        sub = rng.split(i)
        x0 = prior_sample(prior, sub.split(0))
        t1, t2, t3 = sorted(float(v) for v in sub.split(1).uniform(size=3))
        y1 = proc.apply(t1, x0)
        direct = proc.transition(t1, t3, y1)
        chained = proc.transition(t2, t3, proc.transition(t1, t2, y1))
        worst = max(worst, float(np.max(np.abs(direct.values - chained.values))))
        verdict = check_pair_consistency(proc, t1, t3, y1, direct, tolerance=1e-6)
        if not verdict.consistent:
            return False, f"pairwise verdict failed at ({t1:.3g},{t3:.3g})"
    return worst <= 1e-12, f"max transitivity defect {worst:.3g}"


def _suite_pd_curve(config, prior, noise, procs):
    proc = procs["blur"]
    den = OracleDenoiser(prior, proc, noise)
    report = perception_distortion_sweep(
        den, proc, noise, prior, SamplerConfig(delta_t=0.05),
        runs=config["verify"]["pd_runs"],
    )
    ok = report.interior_peak and report.nll_improves_past_peak
    return ok, (f"peak psnr {report.peak_psnr:.4g} at t={report.peak_t:.3g}, "
                f"final nll {report.final_nll:.6g} vs peak nll {report.peak_nll:.6g}")


def _suite_robustness(config, prior, noise, procs):
    shape = prior.mean.shape
    proc = procs["blur"]
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.05)
    op = robustness_sweep(
        den, proc, noise, prior, cfg, kind="operator",
        perturbed_process_factory=lambda mult: GaussianBlurProcess(
            shape, w_min=0.3 * mult, w_max=3.0 * mult),
    )
    nz = robustness_sweep(den, proc, noise, prior, cfg, kind="noise", grid=_NOISE_GRID)
    values = op.psnr + op.nll + nz.psnr + nz.nll
    ok = all(np.isfinite(v) for v in values)
    return ok, (f"operator psnr {min(op.psnr):.4g}..{max(op.psnr):.4g}, "
                f"noise psnr {min(nz.psnr):.4g}..{max(nz.psnr):.4g}")


def _suite_scheduler(config, prior, noise, procs):
    proc = procs["blur"]
    dataset = _prior_dataset(prior, 4, 3)
    table = build_distance_table(proc, dataset, n_candidates=21)
    for m in (1, 3, 6):
        trace = greedy_schedule(table, m).max_edge_trace
        if any(b > a + 1e-12 for a, b in zip(trace, trace[1:])):
            return False, f"max edge increased with more knots (m={m})"
        u_max = max_edge_distance(table, np.linspace(0, table.size - 1, m + 2).round().astype(int))
        if trace[-1] > u_max + 1e-12:
            return False, f"min-max edge {trace[-1]:.4g} > uniform {u_max:.4g} (m={m})"
    return True, "min-max beats or ties uniform; trace non-increasing"


SUITES = {
    "tweedie": _suite_tweedie,
    "thm34": _suite_thm34,
    "thm36": _suite_thm36,
    "transitivity": _suite_transitivity,
    "pd-curve": _suite_pd_curve,
    "robustness": _suite_robustness,
    "scheduler": _suite_scheduler,
}


def cmd_verify(config, out_dir, jobs, thm36_denoiser_factory=None) -> int:
    """Run the requested suites and write verify_report.csv.

    thm36_denoiser_factory(x0), when given, replaces the thm36 suite's
    ground-truth denoiser; negative controls inject a faulty one through it.
    """
    requested = [s.strip() for s in config["verify"]["suites"].split(",") if s.strip()]
    if not requested:
        requested = list(SUITES)
    for name in requested:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
    prior = build_prior(config)
    noise = build_noise(config)
    procs = _processes_for_verify(config, prior)

    suites = dict(SUITES)
    if thm36_denoiser_factory is not None:
        suites["thm36"] = functools.partial(suites["thm36"],
                                            denoiser_factory=thm36_denoiser_factory)

    def run(name):
        return name, suites[name](config, prior, noise, procs)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(run, requested))
    else:
        results = dict(run(name) for name in requested)
    failures = 0
    report_path = os.path.join(out_dir, "verify_report.csv")
    with open(report_path, "w") as f:
        f.write("suite,result,detail\n")
        for name in requested:  # deterministic order regardless of jobs
            passed, detail = results[name]
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict} {name}: {detail}")
            f.write(f'{name},{verdict},"{detail}"\n')
            failures += not passed
    print(f"{len(requested) - failures}/{len(requested)} suites passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_sweep(config, out_dir, jobs) -> int:
    prior = build_prior(config)
    proc = build_process(config, prior)
    noise = build_noise(config)
    c = config["sweep"]
    kind = c["kind"]
    den = OracleDenoiser(prior, proc, noise)
    cfg = build_sampler_config(config)
    if kind == "pd":
        report = perception_distortion_sweep(den, proc, noise, prior, cfg,
                                             runs=c["runs"], base_seed=c["seed"])
        path = os.path.join(out_dir, "pd_curve.csv")
        with open(path, "w") as f:
            f.write("t,psnr_mean,psnr_std,nll_mean,nll_std\n")
            for row in zip(report.ts, report.psnr_mean, report.psnr_std,
                           report.nll_mean, report.nll_std):
                f.write(",".join(f"{v:.9g}" for v in row) + "\n")
        print(f"peak psnr {report.peak_psnr:.6g} at t={report.peak_t:.6g}; "
              f"final nll {report.final_nll:.6g}")
    else:
        if kind == "operator":
            if config["process"]["kind"] != "blur":
                raise ConfigError("operator sweep is defined for the blur process")
            factory = lambda mult: GaussianBlurProcess(
                proc.shape, w_min=config["process"]["w_min"] * mult,
                w_max=config["process"]["w_max"] * mult)
            report = robustness_sweep(den, proc, noise, prior, cfg, kind="operator",
                                      base_seed=c["seed"],
                                      perturbed_process_factory=factory)
        else:
            report = robustness_sweep(den, proc, noise, prior, cfg, kind="noise",
                                      grid=_NOISE_GRID, base_seed=c["seed"])
        path = os.path.join(out_dir, f"robustness_{kind}.csv")
        with open(path, "w") as f:
            f.write(f"{kind},psnr,nll\n")
            for row in zip(report.grid, report.psnr, report.nll):
                f.write(",".join(f"{v:.9g}" for v in row) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "schedule": cmd_schedule,
    "train": cmd_train,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirac",
        description="Degradation-process sampling and verification toolkit.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for independent runs")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config)
        out_dir = args.out if args.out is not None else config["output"]["dir"]
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir, args.jobs)
    except (ConfigError, ValueError) as exc:
        # ValueError: a setting the library refuses (e.g. a noiseless oracle).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
