import functools
import io
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from dirac import cli
from dirac.degrade import GaussianBlurProcess
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


# (section, key, value, loads). Every float key refuses nan and +-inf.
# load_config checks [noise] and [sampler] by
# building NoiseSchedule and SamplerConfig, so their cross-field rules apply;
# [schedule] m must leave room for both endpoints among n_candidates (101);
# check_training owns [training] and SamplerConfig owns [verify] delta_t.
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
    ("noise", "sigma_max", "inf", False),  # sigma_max^2 must be finite
    ("noise", "sigma_max", "1e300", False),
    ("noise", "sigma_max", "1e150", True),
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
    ("sampler", "eta", "inf", False),
    ("sampler", "small_dt", "-1", False),
    ("sampler", "small_dt", "0", True),  # 0 = unset
    ("sampler", "small_dt", "nan", False),
    ("sampler", "small_dt", "inf", False),
    ("sampler", "small_dt", "0.01", True),
    ("sampler", "guidance", "bogus", False),
    ("sampler", "guidance", "error_scaled", True),
    ("sampler", "output", "bogus", False),
    ("sampler", "output", "final_iterate", True),
    ("sampler", "variant", "bogus", False),
    ("sampler", "variant", "SLA", False),  # no small_dt
    ("sampler", "variant", "LB", True),
    ("prior", "mean", "inf", False),
    ("prior", "mean", "-inf", False),
    ("prior", "mean", "nan", False),
    ("prior", "mean", "-2.5", True),
    ("process", "w_max", "inf", False),
    ("process", "kernel_size", "5", False),  # removed: blur has no kernel size
    ("process", "w_final", "0", True),  # 0 = auto
    ("process", "w_final", "-1", False),
    ("process", "w_final", "inf", False),
    ("training", "step_size", "inf", False),
    ("training", "step_size", "0", False),
    ("training", "steps", "-1", False),
    ("training", "steps", "0", True),
    ("training", "batch_size", "0", False),
    ("training", "delta_t", "nan", False),
    ("training", "delta_t", "0.3", False),  # the denoising loss trains at delta_t = 0
    ("training", "loss", "incremental", True),
    ("training", "loss", "bogus", False),
    ("verify", "suites", "nonsense", False),
    ("verify", "suites", "tweedie, thm34", True),
    ("verify", "delta_t", "0", False),
    ("verify", "delta_t", "1.5", False),
    ("verify", "delta_t", "1", True),
    ("schedule", "m", "99", True),
    ("schedule", "m", "100", False),
    ("schedule", "m", "-1", False),
    ("schedule", "m", "0", True),
    ("schedule", "n_candidates", "1", False),
    ("schedule", "n_candidates", "22", True),
    ("schedule", "n_candidates", "21", False),  # m = 20 needs 22
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


def test_schedule_m_too_large_exits_before_any_table(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the distance table was built")

    monkeypatch.setattr(cli, "build_distance_table", refuse)
    cfg = write_config(tmp_path, "\n[schedule]\nm = 100\n")
    assert run(["schedule", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "m=100 too large for 101 candidates" in err[0]


@pytest.mark.parametrize("source", ["w_max", "schedule_file"])
def test_blur_wider_than_image_exits_before_any_table(tmp_path, capsys, monkeypatch, source):
    # _blur_variance loops ceil(4w) times: w_max = 1e300 once kept this command running
    from dirac.schedule import SeveritySchedule, save_schedule

    def refuse(*args, **kwargs):
        raise AssertionError("the distance table was built")

    monkeypatch.setattr(cli, "build_distance_table", refuse)
    path = tmp_path / "wide.txt"
    save_schedule(SeveritySchedule(((0.0, 0.3), (1.0, 1e6))), path, n_candidates=11)
    setting = "w_max = 1e6" if source == "w_max" else f"schedule_file = {path}"
    cfg = write_config(tmp_path, f"\n[process]\nkind = blur\n{setting}\n")
    assert run(["schedule", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    named = "[process] w_max" if source == "w_max" else str(path)
    assert named in err[0] and "blur width 1000000 exceeds the image's larger side 6" in err[0]


@pytest.mark.parametrize("shape,pixels", [("1", 1), ("1x1", 1), ("2", 2), ("1x2", 2),
                                          ("2x1", 2)])
def test_one_pixel_image_is_refused_at_build(tmp_path, capsys, shape, pixels):
    # at one pixel inpainting masks the whole image: verify's bound audit looped forever
    cfg = write_config(tmp_path, f"\n[prior]\nshape = {shape}\n"
                                 "\n[schedule]\nm = 1\nn_candidates = 5\ndataset_size = 2\n")
    config = cli.load_config(cfg)
    if pixels == 2:
        assert cli.build_prior(config).n == 2
        return
    with pytest.raises(cli.ConfigError, match="at least 2 pixels"):
        cli.build_prior(config)
    assert run(["schedule", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [prior] shape = {shape!r}: an image needs at least 2 pixels"]


def test_schedule_file_of_another_family_exits_2(tmp_path, capsys):
    from dirac.schedule import SeveritySchedule, save_schedule

    path = tmp_path / "inpaint.txt"
    save_schedule(SeveritySchedule(((0.0, 0.0), (0.5, 0.4), (1.0, 2.0))), path,
                  process_name="GaussianMaskInpaintProcess", n_candidates=101)
    cfg = write_config(tmp_path, f"\n[process]\nkind = blur\nschedule_file = {path}\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: schedule written for GaussianMaskInpaintProcess, "
                   "not GaussianBlurProcess"]
    inpaint = write_config(tmp_path, f"\n[process]\nkind = inpaint\nschedule_file = {path}\n")
    assert run(["sample", "--config", inpaint]) == cli.EXIT_OK


@pytest.mark.parametrize("kind", ["inpaint", "blur"])
@pytest.mark.parametrize("command", ["schedule", "train", "sample"])
def test_non_finite_schedule_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, kind):
    # a NaN last width once loaded: sampling then aborted on a non-finite iterate
    # (inpainting) or failed converting NaN to an integer (blur)
    def refuse(*args, **kwargs):
        raise AssertionError("a table, training or sampling started")

    for name in ("build_distance_table", "train_affine", "dirac_sample"):
        monkeypatch.setattr(cli, name, refuse)
    family = "GaussianBlurProcess" if kind == "blur" else "GaussianMaskInpaintProcess"
    path = tmp_path / "nan.txt"
    path.write_text(f"{family} rmse 11 0\n0 0\n1 nan\n")
    cfg = write_config(tmp_path, f"\n[process]\nkind = {kind}\nschedule_file = {path}\n")
    assert run([command, "--config", cfg]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: schedule knots must be finite"]


def test_blur_as_wide_as_image_is_accepted(tmp_path):
    cfg = write_config(tmp_path, "\n[process]\nkind = blur\nw_max = 6\n"
                                 "\n[schedule]\nm = 1\nn_candidates = 5\ndataset_size = 2\n")
    assert run(["schedule", "--config", cfg]) == cli.EXIT_OK


def test_blending_refuses_schedule_file(tmp_path):
    from dirac.schedule import SeveritySchedule, save_schedule

    path = tmp_path / "schedule.txt"
    save_schedule(SeveritySchedule(((0.0, 0.0), (1.0, 1.0))), path)
    cfg = write_config(tmp_path, f"\n[process]\nkind = blending\nschedule_file = {path}\n")
    with pytest.raises(cli.ConfigError, match=r"\[process\] schedule_file"):
        cli.load_config(cfg)


@pytest.mark.parametrize("kind", ["blur", "inpaint"])
def test_schedule_file_spaces_knots_evenly_and_changes_the_sample(tmp_path, kind):
    from dirac.schedule import greedy_schedule, load_schedule

    def config(schedule_file=""):
        return write_config(tmp_path, f"\n[prior]\nshape = 8x8\n"
                                      f"\n[process]\nkind = {kind}\nschedule_file = {schedule_file}\n"
                                      "\n[schedule]\nm = 5\nn_candidates = 41\n")

    out = tmp_path / "out"
    assert run(["schedule", "--config", config()]) == cli.EXIT_OK
    loaded = load_schedule(str(out / "schedule.txt"))
    conf = cli.load_config(config())
    prior = cli.build_prior(conf)
    table = cli.build_distance_table(cli.build_process(conf, prior),
                                     cli._prior_dataset(prior, 8, 0), n_candidates=41)
    for k, (_, w) in enumerate(greedy_schedule(table, 5).knots):
        assert loaded.interpolate(k / 6) == pytest.approx(w, rel=1e-8, abs=1e-12)

    assert run(["sample", "--config", config()]) == cli.EXIT_OK
    plain = (out / "trajectory.csv").read_bytes()
    assert run(["sample", "--config", config(out / "schedule.txt")]) == cli.EXIT_OK
    assert (out / "trajectory.csv").read_bytes() != plain


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


def test_images_of_a_1d_signal_are_refused_before_sampling(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n[prior]\nshape = 16\n\n[sampler]\nwrite_images = true\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [sampler] write_images = true needs a 2-D image, "
                   "but [prior] shape = '16'"]
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def _measurement_file(tmp_path):
    from dirac.core import write_signal

    meas = tmp_path / "meas.bin"
    write_signal(cli.build_prior(cli.load_config(write_config(tmp_path))).mean, str(meas))
    return meas


def test_sample_from_measurement_file(tmp_path, capsys):
    # an external measurement has no truth to score against
    meas = _measurement_file(tmp_path)
    cfg = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n"
                                 "write_images = true\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_OK
    final = capsys.readouterr().out.splitlines()[0]
    assert final.startswith("final nll ") and "eps_dc" in final and "psnr" not in final
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[3] == "nan" for row in rows)
    assert sorted(p.name for p in (tmp_path / "out").glob("*.pgm")) == [
        "measurement.pgm", "output.pgm"]


def test_truth_denoiser_refuses_measurement_file(tmp_path, capsys):
    meas = _measurement_file(tmp_path)
    cfg = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n"
                                 "denoiser = truth\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "denoiser = truth" in err[0], err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_sample_measurement_file_shape_mismatch(tmp_path):
    from dirac.core import Signal, write_signal

    meas = tmp_path / "meas.bin"
    write_signal(Signal(np.zeros(4), (2, 2)), str(meas))
    cfg = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_measurement_file_exits_2(tmp_path, capsys, bad):
    from dirac.core import Signal, write_signal

    meas = tmp_path / "meas.bin"
    values = np.full(36, 0.5)
    values[7] = bad
    write_signal(Signal(values, (6, 6)), meas)
    cfg = write_config(tmp_path, f"\n[sampler]\nmeasurement_file = {meas}\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {meas}"), err


@pytest.mark.parametrize("dims", [(), (2, 2, 1), (0,)], ids=["ndim0", "ndim3", "zero-size"])
def test_measurement_file_with_bad_shape_names_the_file(tmp_path, capsys, dims):
    import struct

    from dirac.core import Signal, write_signal

    meas = tmp_path / "meas.bin"
    write_signal(Signal(np.zeros(4), (2, 2)), meas)
    magic_and_version = meas.read_bytes()[:9]
    meas.write_bytes(magic_and_version + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
                     + bytes(8 * int(np.prod(dims))))
    cfg = write_config(tmp_path, "\n[prior]\nshape = 2x2\n"
                                 f"\n[sampler]\nmeasurement_file = {meas}\n")
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {meas}: shape must be"), err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


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


def _model_file(tmp_path, n_bins, shape):
    from dirac.core import squared_exponential_prior
    from dirac.denoise import AffineDenoiser, save_model

    path = tmp_path / "model.bin"
    save_model(AffineDenoiser.initialized(squared_exponential_prior(shape), n_bins=n_bins), path)
    return write_config(tmp_path, "\n[prior]\nshape = 2x2\n"
                                  f"\n[sampler]\ndenoiser = model\nmodel_file = {path}\n"), path


def test_model_file_without_bins_exits_2(tmp_path, capsys):
    cfg, path = _model_file(tmp_path, 2, (2, 2))
    path.write_bytes(path.read_bytes()[:9] + struct.pack("<II", 0, 4))  # 0 bins of size 4
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}") and "0 bins" in err[0], err


def test_model_size_mismatch_names_both_sizes(tmp_path, capsys):
    cfg, path = _model_file(tmp_path, 2, (3, 3))
    assert run(["sample", "--config", cfg]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}"), err
    assert "n = 9" in err[0] and "n = 4" in err[0], err


def test_truncated_schedule_file_exits_2(tmp_path, capsys):
    from dirac.schedule import SeveritySchedule, save_schedule

    full = tmp_path / "full.txt"
    # widest width 2: the runs are at 2x2, and a blur wider than the image is refused
    save_schedule(SeveritySchedule(((0.0, 0.3), (0.4, 1.1), (1.0, 2.0))), full,
                  process_name="GaussianBlurProcess", n_candidates=11)
    _every_cut_exits_2(tmp_path, capsys, full.read_bytes(),
                       "\n[process]\nkind = blur\nschedule_file = {path}\n")


def test_verify_unknown_suite(tmp_path):
    cfg = write_config(tmp_path, "\n[verify]\nsuites = nonsense\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_USAGE


def test_verify_trials_key_is_refused(tmp_path, capsys):
    # the bound audit is exact per mode and draws no trials, so the key is gone
    cfg = write_config(tmp_path, "\n[verify]\ntrials = 50\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: unknown key 'trials' in [verify]"]


README_CONFIG = """
[prior]
shape = {shape}

[process]
kind = inpaint

[sampler]
delta_t = 0.05
measurement_seed = 11

[output]
dir = {{out}}
"""


@pytest.mark.parametrize("shape", ["8x8", "16x16", "32x32"])
def test_verify_thm34_passes_and_reruns_identically(tmp_path, shape):
    cfg = write_config(tmp_path, "\n[verify]\nsuites = thm34\n",
                       base=README_CONFIG.format(shape=shape))
    reports = []
    for _ in range(2):
        assert run(["verify", "--config", cfg]) == cli.EXIT_OK
        reports.append((tmp_path / "out" / "verify_report.csv").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].startswith(b'suite,result,detail\nthm34,PASS,"0 bound violations; '
                                 b"worst LHS/RHS blur ")


def test_verify_prints_each_verdict_as_its_suite_ends(tmp_path, monkeypatch):
    class Pipe(io.StringIO):
        """Text that reaches a reader only once flushed, as through a pipe."""

        flushed = ""

        def flush(self):
            self.flushed = self.getvalue()

    pipe, seen = Pipe(), []
    monkeypatch.setattr(sys, "stdout", pipe)
    monkeypatch.setitem(cli.SUITES, "tweedie", lambda *args: (True, "first"))
    monkeypatch.setitem(cli.SUITES, "thm34", lambda *args: seen.append(pipe.flushed)
                        or (False, "second"))
    cfg = write_config(tmp_path, "\n[verify]\nsuites = tweedie, thm34\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_FAIL
    assert seen == ["PASS tweedie: first\n"]
    assert pipe.getvalue() == "PASS tweedie: first\nFAIL thm34: second\n1/2 suites passed\n"


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
    # --jobs is accepted and changes nothing: all seven suites print what the
    # default prints, under a short switch interval that would interleave threads.
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


def test_verify_runs_every_suite_on_the_main_thread(tmp_path, monkeypatch):
    threads = []
    for name in list(cli.SUITES):
        def record(*args, name=name):
            threads.append((name, threading.current_thread()))
            return True, "recorded"

        monkeypatch.setitem(cli.SUITES, name, record)
    cfg = write_config(tmp_path)
    assert run(["verify", "--config", cfg, "--jobs", "3"]) == cli.EXIT_OK
    assert threads == [(name, threading.main_thread()) for name in cli.SUITES]


def test_verify_pd_curve_and_robustness_share_one_blur_oracle(tmp_path, monkeypatch):
    # robustness steps through pd-curve's severities with the same oracle, so it
    # factors none of its own: the oracle adds M^T M by add_gram once per cold severity
    grams = []
    real = GaussianBlurProcess.add_gram
    monkeypatch.setattr(GaussianBlurProcess, "add_gram",
                        lambda self, t, out: grams.append(t) or real(self, t, out))
    pd_only = write_config(tmp_path, "\n[verify]\nsuites = pd-curve\npd_runs = 2\n")
    assert run(["verify", "--config", pd_only]) == cli.EXIT_OK
    alone = list(grams)
    grams.clear()
    both = write_config(tmp_path, "\n[verify]\nsuites = pd-curve, robustness\npd_runs = 2\n")
    assert run(["verify", "--config", both]) == cli.EXIT_OK
    assert len(alone) == 20 and grams == alone


def test_verify_forms_one_precision_for_every_oracle(tmp_path, monkeypatch):
    # tweedie's three oracles and the shared blur oracle read Sigma^{-1} from the one prior,
    # so LAPACK inverts that prior's factor once
    priors, inversions = [], []
    real_prior, real_dpotri = cli.build_prior, lapack.dpotri

    def build_prior(config):
        priors.append(real_prior(config))
        return priors[-1]

    def dpotri(c, *args, **kwargs):
        inversions.append(any(c is p.cholesky_factor for p in priors))
        return real_dpotri(c, *args, **kwargs)

    monkeypatch.setattr(cli, "build_prior", build_prior)
    monkeypatch.setattr(lapack, "dpotri", dpotri)
    assert run(["verify", "--config", write_config(tmp_path)]) == cli.EXIT_OK
    assert len(priors) == 1 and sum(inversions) == 1


def test_verify_thm36_negative_control(tmp_path, capsys, monkeypatch):
    # swap in a biased denoiser through the suite's factory: the suite must FAIL
    cfg = write_config(tmp_path, "\n[verify]\nsuites = thm36\nseeds = 16\ndelta_t = 0.25\n")
    assert run(["verify", "--config", cfg]) == cli.EXIT_OK

    def biased(truth):
        return GroundTruthDenoiser(truth.with_values(truth.values + 0.5))

    monkeypatch.setitem(cli.SUITES, "thm36",
                        functools.partial(cli._suite_thm36, denoiser_factory=biased))
    assert run(["verify", "--config", cfg]) == cli.EXIT_FAIL
    assert "FAIL thm36" in capsys.readouterr().out


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


def test_sweep_operator_scales_the_configured_schedule(tmp_path, monkeypatch):
    from dirac.schedule import SeveritySchedule, save_schedule

    path = tmp_path / "schedule.txt"
    save_schedule(SeveritySchedule(((0.0, 0.5), (0.5, 0.7), (1.0, 2.0))), path)
    seen = {}

    def capture(*args, perturbed_process_factory, **kwargs):
        seen["knots"] = perturbed_process_factory(1.5).schedule.knots
        raise ValueError("captured")

    monkeypatch.setattr(cli, "robustness_sweep", capture)
    cfg = write_config(tmp_path, f"\n[process]\nkind = blur\nschedule_file = {path}\n"
                                 "\n[sweep]\nkind = operator\n")
    assert run(["sweep", "--config", cfg]) == cli.EXIT_USAGE
    assert seen["knots"] == ((0.0, 0.75), (0.5, 0.7 * 1.5), (1.0, 3.0))


def test_sweep_operator_requires_blur(tmp_path):
    cfg = write_config(tmp_path, "\n[sweep]\nkind = operator\n")
    assert run(["sweep", "--config", cfg]) == cli.EXIT_USAGE


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, where):
    # os.makedirs raised FileExistsError and NotADirectoryError through main
    cfg = write_config(tmp_path, "\n[schedule]\nm = 0\nn_candidates = 11\ndataset_size = 4\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "a file" else blocker / "x"
    assert run(["schedule", "--config", cfg, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot make output directory {out}: ")


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "\n[schedule]\nm = 0\nn_candidates = 11\ndataset_size = 4\n")
    alt = tmp_path / "elsewhere"
    assert run(["schedule", "--config", cfg, "--out", str(alt)]) == cli.EXIT_OK
    assert (alt / "schedule.txt").exists()
