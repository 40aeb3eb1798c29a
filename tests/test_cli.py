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
    cfg = write_config(tmp_path,
                       "\n[verify]\nsuites = tweedie, transitivity, scheduler\nseeds = 8\n"
                       "\n[schedule]\nm = 2\nn_candidates = 11\ndataset_size = 4\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK
    serial = capsys.readouterr().out
    assert run(["verify", "--config", cfg, "--jobs", "3"]) == cli.EXIT_OK
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
