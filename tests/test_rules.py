"""Each refusal rule has one definition, and every entry point reaches it.

A rule written out at several sites drifts: one copy is loosened, another
lets NaN through. So no literal error message may be raised from two sites
in the package, and the refusals below run each rule through every entry
point that relies on it.
"""

import ast
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from dirac import cli
from dirac.core import Signal, mse, prior_nll, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.denoise import AffineDenoiser
from dirac.schedule import check_knot_count, linear_schedule
from dirac.sdp import NoiseSchedule

SRC = Path(__file__).resolve().parents[1] / "src" / "dirac"
SHAPE = (4, 4)


def _raise_sites(src=SRC):
    """{message template: [file:line, ...]} over every raise whose message is a literal;
    an f-string's replacement fields read as {}."""
    sites = defaultdict(list)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                template = message.value
            elif isinstance(message, ast.JoinedStr):
                template = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                   for part in message.values)
            else:
                continue
            sites[template].append(f"{path.name}:{node.lineno}")
    return sites


def test_no_literal_error_message_is_raised_from_two_sites():
    # a message with no literal words, such as f"{path}: {exc}", only passes another on
    sites = _raise_sites()
    assert sites
    repeated = {template: where for template, where in sites.items()
                if len(where) > 1 and re.search("[A-Za-z]", template.replace("{}", ""))}
    assert not repeated


def test_raise_sites_read_f_string_fields_as_placeholders():
    templates = _raise_sites()
    assert [site.split(":")[0] for site in templates["severity {} outside [0,1]"]] == [
        "schedule.py"]
    assert "{}: {}" in templates  # exempt: no literal words


def _blending():
    return BlendingProcess(Signal(np.linspace(0.0, 1.0, 16), SHAPE))


def _affine():
    return AffineDenoiser.initialized(squared_exponential_prior(SHAPE), n_bins=4)


_ZEROS = Signal(np.zeros(16), SHAPE)

# Every entry point that takes a severity; each reaches check_severity.
SEVERITY_ENTRY_POINTS = {
    "NoiseSchedule.sigma": lambda t: NoiseSchedule().sigma(t),
    "SeveritySchedule.interpolate": lambda t: linear_schedule(0.3, 3.0).interpolate(t),
    "GaussianBlurProcess.apply": lambda t: GaussianBlurProcess(SHAPE).apply(t, _ZEROS),
    "GaussianMaskInpaintProcess.eigenvalues":
        lambda t: GaussianMaskInpaintProcess(SHAPE).eigenvalues(t),
    "BlendingProcess.apply": lambda t: _blending().apply(t, _ZEROS),
    "BlendingProcess.eigenvalues": lambda t: _blending().eigenvalues(t),
    "BlendingProcess.as_matrix": lambda t: _blending().as_matrix(t),
    "AffineDenoiser.estimate": lambda t: _affine().estimate(_ZEROS, t),
}


@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan], ids=["-0.1", "1.5", "nan"])
@pytest.mark.parametrize("entry", sorted(SEVERITY_ENTRY_POINTS))
def test_severity_outside_unit_interval_is_refused(entry, t):
    with pytest.raises(ValueError, match=rf"^severity {t} outside \[0,1\]$"):
        SEVERITY_ENTRY_POINTS[entry](t)


FAMILIES = {
    "blur": lambda: GaussianBlurProcess(SHAPE),
    "inpaint": lambda: GaussianMaskInpaintProcess(SHAPE),
    "blending": _blending,
}


@pytest.mark.parametrize("t_lo,t_hi", [(0.6, 0.4), (math.nan, 0.4), (0.4, math.nan)],
                         ids=["0.6-0.4", "nan-0.4", "0.4-nan"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_transition_refuses_a_lower_target_severity(family, t_lo, t_hi):
    with pytest.raises(ValueError, match=r"^transition requires t_lo <= t_hi$"):
        FAMILIES[family]().transition(t_lo, t_hi, _ZEROS)


@pytest.mark.parametrize("measure", [
    lambda a, b: mse(a, b),
    lambda a, b: prior_nll(squared_exponential_prior(b.shape), a),
], ids=["mse", "prior_nll"])
def test_shape_mismatch_is_refused(measure):
    flat = Signal(np.zeros(16), (16,))
    with pytest.raises(ValueError, match=r"^shape mismatch: \(16,\) vs \(4, 4\)$"):
        measure(flat, _ZEROS)


@pytest.mark.parametrize("m,n_candidates", [(-1, 101), (100, 101), (0, 1), (20, 1)])
def test_knot_count_outside_zero_to_n_minus_two_is_refused(m, n_candidates):
    with pytest.raises(ValueError, match=rf"^m={m} "):
        check_knot_count(m, n_candidates)


@pytest.mark.parametrize("text", ["4xq", "", "2x2x2", "0x4", "-3"])
def test_bad_shape_is_refused(text):
    with pytest.raises(cli.ConfigError, match=rf"^bad shape {re.escape(repr(text))}$"):
        cli._parse_shape(text)
