import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac import cli
from dirac.denoise import GroundTruthDenoiser

BASE = """
[prior]
shape = 6x6
seed = 0

[process]
kind = inpaint

[sampler]
delta_t = 0.25
seed = 3
measurement_seed = 11

[output]
dir = {out}
"""


def write_config(tmp_path, extra="", base=BASE):
    import configparser, io

    parser = configparser.ConfigParser()
    parser.read_string(base.format(out=tmp_path / "out"))
    if extra:
        overlay = configparser.ConfigParser()
        overlay.read_string(extra)
        for section in overlay.sections():
            if not parser.has_section(section):
                parser.add_section(section)
            for key, value in overlay[section].items():
                parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    path = tmp_path / "exp.ini"
    path.write_text(buf.getvalue())
    return str(path)


def run(args):
    return cli.main(args)


def test_missing_config_is_usage_error(capsys):
    assert run(["sample", "--config", "/nonexistent.ini"]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n[mystery]\nx = 1\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "\n[sampler]\nbogus_key = 1\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE


def test_out_of_range_value_rejected(tmp_path):
    cfg = write_config(tmp_path, "\n[noise]\nsigma_max = -1\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE


# (section, key, value, loads). load_config checks [noise] and [sampler] by
# building NoiseSchedule and SamplerConfig, so their cross-field rules apply.
LOAD_CASES = [
    ("noise", "sigma_min", "-1", False),
    ("noise", "sigma_min", "0", False),
    ("noise", "sigma_min", "nan", False),
    ("noise", "sigma_min", "inf", False),
    ("noise", "sigma_min", "0.05", True),
    ("noise", "sigma_min", "0.06", False),
    ("noise", "sigma_max", "-1", False),
    ("noise", "sigma_max", "0", False),
    ("noise", "sigma_max", "nan", False),
    ("noise", "sigma_max", "inf", True),
    ("noise", "sigma_max", "0.005", False),
    ("noise", "sigma_max", "0.01", True),
    ("sampler", "delta_t", "-1", False),
    ("sampler", "delta_t", "0", False),
    ("sampler", "delta_t", "nan", False),
    ("sampler", "delta_t", "inf", False),
    ("sampler", "delta_t", "1", True),
    ("sampler", "delta_t", "1.0001", False),
    ("sampler", "delta_t", "1e-9", True),
    ("sampler", "t_stop", "-1", False),
    ("sampler", "t_stop", "0", True),
    ("sampler", "t_stop", "nan", False),
    ("sampler", "t_stop", "inf", False),
    ("sampler", "t_stop", "0.999", True),
    ("sampler", "t_stop", "1", False),
    ("sampler", "eta", "-1", False),
    ("sampler", "eta", "0", True),
    ("sampler", "eta", "-0.0", True),
    ("sampler", "eta", "nan", False),
    ("sampler", "eta", "inf", True),
    ("sampler", "small_dt", "-1", False),
    ("sampler", "small_dt", "0", True),  # 0 = unset
    ("sampler", "small_dt", "nan", False),
    ("sampler", "small_dt", "inf", True),
    ("sampler", "small_dt", "0.01", True),
    ("sampler", "guidance", "bogus", False),
    ("sampler", "guidance", "error_scaled", True),
    ("sampler", "output", "bogus", False),
    ("sampler", "output", "final_iterate", True),
    ("sampler", "variant", "bogus", False),
    ("sampler", "variant", "SLA", False),  # no small_dt
    ("sampler", "variant", "LB", True),
    ("process", "kernel_size", "5", False),  # removed: blur has no kernel size
    ("process", "w_final", "0", True),  # 0 = auto
    ("process", "w_final", "-1", False),
]


@pytest.mark.parametrize("section,key,value,loads", LOAD_CASES,
                         ids=[f"{s}.{k}={v}" for s, k, v, _ in LOAD_CASES])
def test_load_config_range_verdicts(tmp_path, section, key, value, loads):
    path = tmp_path / "one.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    if loads:
        cli.load_config(str(path))
    else:
        with pytest.raises(cli.ConfigError, match=rf"\[{section}\]"):
            cli.load_config(str(path))


def test_empty_config_loads_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    config = cli.load_config(str(path))
    assert config["noise"] == {"sigma_min": 0.01, "sigma_max": 0.05}
    assert config["sampler"]["variant"] == "LA"


def test_bad_arguments_are_usage_errors(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["frobnicate", "--config", cfg]) == cli.EXIT_USAGE
    assert run(["sample"]) == cli.EXIT_USAGE
    assert run(["sample", "--config", cfg, "--jobs", "0"]) == cli.EXIT_USAGE


def test_schedule_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n[schedule]\nm = 0\nn_candidates = 11\ndataset_size = 4\n")
    assert run(["schedule", "--config", cfg]) == cli.EXIT_OK
    from dirac.schedule import load_schedule

    sched = load_schedule(str(tmp_path / "out" / "schedule.txt"))
    assert [t for t, _ in sched.knots] == [0.0, 1.0]  # m = 0 keeps just the endpoints


def test_schedule_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "\n[schedule]\nm = 3\nn_candidates = 11\ndataset_size = 4\n")
    assert run(["schedule", "--config", cfg]) == cli.EXIT_OK
    first = (tmp_path / "out" / "schedule.txt").read_bytes()
    assert run(["schedule", "--config", cfg]) == cli.EXIT_OK
    assert (tmp_path / "out" / "schedule.txt").read_bytes() == first


def test_train_zero_steps_writes_initialization(tmp_path):
    cfg = write_config(tmp_path, "\n[training]\nsteps = 0\n")
    assert run(["train", "--config", cfg]) == cli.EXIT_OK
    from dirac.denoise import AffineDenoiser, load_model

    model = load_model(str(tmp_path / "out" / "model.bin"))
    init = AffineDenoiser.initialized(cli.build_prior(cli.load_config(cfg)), n_bins=8)
    np.testing.assert_array_equal(model.d, init.d)
    np.testing.assert_array_equal(model.c, init.c)
    loss_csv = (tmp_path / "out" / "train_loss.csv").read_text()
    assert loss_csv.splitlines()[0] == "step,loss"


def test_train_short_run_writes_loss_curve(tmp_path):
    cfg = write_config(tmp_path, "\n[training]\nsteps = 5\nbatch_size = 4\n")
    assert run(["train", "--config", cfg]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "train_loss.csv").read_text().splitlines()
    assert len(lines) == 6  # header + one row per step


def test_sample_writes_trajectory_and_reruns_identically(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "psnr" in printed and "eps_dc" in printed
    first = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").read_bytes() == first


def test_sample_writes_images_when_asked(tmp_path):
    cfg = write_config(tmp_path, "\n[sampler]\nwrite_images = true\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK
    pgms = list((tmp_path / "out").glob("*.pgm"))
    assert pgms
    assert pgms[0].read_bytes().startswith(b"P5")


def test_sample_from_measurement_file(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK
    # re-feed the final iterate as an external measurement of matching shape
    from dirac.core import write_signal

    meas = tmp_path / "meas.bin"
    config = cli.load_config(cfg)
    prior = cli.build_prior(config)
    write_signal(prior.mean, str(meas))
    cfg2 = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n")
    assert run(["sample", "--config", cfg2]) == cli.EXIT_OK


def test_sample_measurement_file_shape_mismatch(tmp_path):
    from dirac.core import Signal, write_signal

    meas = tmp_path / "meas.bin"
    write_signal(Signal(np.zeros(4), (2, 2)), str(meas))
    cfg = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE


def _every_cut_exits_2(tmp_path, capsys, data, extra):
    cut = tmp_path / "cut.bin"
    cfg = write_config(tmp_path, "\n[prior]\nshape = 2x2\n" + extra.format(path=cut))
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cut}"), err
    cut.write_bytes(data)
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK


def test_truncated_measurement_file_exits_2(tmp_path, capsys):
    from dirac.core import Signal, write_signal

    full = tmp_path / "full.bin"
    write_signal(Signal(np.full(4, 0.5), (2, 2)), full)
    _every_cut_exits_2(tmp_path, capsys, full.read_bytes(),
                       "\n[sampler]\nmeasurement_file = {path}\n")


def test_truncated_model_file_exits_2(tmp_path, capsys):
    from dirac.core import squared_exponential_prior
    from dirac.denoise import AffineDenoiser, save_model

    full = tmp_path / "full.bin"
    save_model(AffineDenoiser.initialized(squared_exponential_prior((2, 2)), n_bins=2), full)
    _every_cut_exits_2(tmp_path, capsys, full.read_bytes(),
                       "\n[sampler]\ndenoiser = model\nmodel_file = {path}\n")


def test_truncated_schedule_file_exits_2(tmp_path, capsys):
    from dirac.schedule import SeveritySchedule, save_schedule

    full = tmp_path / "full.txt"
    save_schedule(SeveritySchedule(((0.0, 0.3), (0.4, 1.1), (1.0, 3.0))), full,
                  process_name="GaussianBlurProcess", n_candidates=11)
    _every_cut_exits_2(tmp_path, capsys, full.read_bytes(),
                       "\n[process]\nkind = blur\nschedule_file = {path}\n")


def test_verify_unknown_suite(tmp_path):
    cfg = write_config(tmp_path, "\n[verify]\nsuites = nonsense\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_USAGE


def test_verify_selected_suites_pass(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       "\n[verify]\nsuites = tweedie, transitivity\nseeds = 16\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "PASS tweedie" in out
    assert "PASS transitivity" in out
    assert "2/2 suites passed" in out


def test_verify_transitivity_passes_at_16x16(tmp_path, capsys):
    # mask entries near 1e-3 at this size defeated an absolute-ridge solve
    cfg = write_config(tmp_path, "\n[prior]\nshape = 16x16\n"
                                 "\n[verify]\nsuites = transitivity\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK
    assert "PASS transitivity" in capsys.readouterr().out


def test_verify_report_independent_of_hash_seed(tmp_path):
    cfg = write_config(tmp_path, "\n[verify]\nsuites = tweedie\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "dirac.cli", "verify", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stdout + proc.stderr
        reports.append((out / "verify_report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_verify_parallel_matches_serial(tmp_path, capsys):
    # All seven suites, so the operators they share run on several threads;
    # a short switch interval makes the threads interleave more often.
    cfg = write_config(tmp_path,
                       "\n[verify]\nseeds = 8\n"
                       "\n[schedule]\nm = 2\nn_candidates = 11\ndataset_size = 4\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK
    serial = capsys.readouterr().out
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run(["verify", "--config", cfg, "--jobs", "3"]) == cli.EXIT_OK
    finally:
        sys.setswitchinterval(interval)
    assert capsys.readouterr().out == serial


def test_verify_thm36_negative_control(tmp_path, capsys):
    # swap in a biased denoiser through cmd_verify's factory: the suite must FAIL
    cfg = write_config(tmp_path, "\n[verify]\nsuites = thm36\nseeds = 16\ndelta_t = 0.25\n")

    def biased(truth):
        return GroundTruthDenoiser(truth.with_values(truth.values + 0.5))

    code = cli.cmd_verify(cli.load_config(cfg), str(tmp_path), 1,
                          thm36_denoiser_factory=biased)
    assert code == cli.EXIT_FAIL
    assert "FAIL thm36" in capsys.readouterr().out
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK


def test_noiseless_oracle_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n[prior]\nshape = 8x8\n"
                                 "\n[noise]\nsigma_min = 0\nsigma_max = 0\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sigma_t=0" in err
    assert len(err.splitlines()) == 1


def test_sweep_pd_writes_curve(tmp_path):
    cfg = write_config(tmp_path, "\n[sweep]\nkind = pd\nruns = 3\n")
    assert run(["sweep", "--config", cfg]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "pd_curve.csv").read_text().splitlines()
    assert lines[0] == "t,psnr_mean,psnr_std,nll_mean,nll_std"
    assert len(lines) > 2


def test_sweep_noise_writes_grid(tmp_path):
    cfg = write_config(tmp_path, "\n[sweep]\nkind = noise\n")
    assert run(["sweep", "--config", cfg]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "robustness_noise.csv").read_text().splitlines()
    assert lines[0] == "noise,psnr,nll"


def test_sweep_operator_requires_blur(tmp_path):
    cfg = write_config(tmp_path, "\n[sweep]\nkind = operator\n")
    assert run(["sweep", "--config", cfg]) == cli.EXIT_USAGE


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "\n[schedule]\nm = 0\nn_candidates = 11\ndataset_size = 4\n")
    alt = tmp_path / "elsewhere"
    assert run(["schedule", "--config", cfg, "--out", str(alt)]) == cli.EXIT_OK
    assert (alt / "schedule.txt").exists()
