"""Each refusal rule has one definition, and every entry point reaches it.

A rule written out at several sites drifts: one copy is loosened, another
lets NaN through. So no literal error message may be raised from two sites
in the package, and the refusals below run each rule through every entry
point that relies on it. Likewise every public name is reached from the
package, the demos or the benchmark, or is kept for a stated reason: a name
only its own tests call still draws fixes.
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dirac"
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


def _numpy_algebra(node):
    """(line, form) of each `@`, np.dot, np.matmul and np.linalg.* under an ast node."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append((sub.lineno, "@"))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            name = f"{sub.value.id}.{sub.attr}"
            if name in ("np.dot", "np.matmul", "np.linalg", "numpy.dot", "numpy.matmul",
                        "numpy.linalg"):
                found.append((sub.lineno, name))
    return sorted(found)


def _definition(module, *path):
    """The class or function definition at a dotted path in a package module."""
    node = ast.parse((SRC / module).read_text())
    for name in path:
        node = next(sub for sub in node.body
                    if isinstance(sub, (ast.ClassDef, ast.FunctionDef)) and sub.name == name)
    return node


def test_oracle_dense_algebra_runs_on_scipy_blas_alone():
    # numpy bundles a second OpenBLAS: a numpy product on the oracle path wakes its thread
    # pool to spin against scipy's, so the oracle and the prior's Sigma^{-1} use scipy only
    for module, path in (("denoise.py", ("OracleDenoiser",)),
                         ("core.py", ("GaussianPrior", "precision"))):
        assert not _numpy_algebra(_definition(module, *path)), (module, path)


def test_numpy_algebra_scan_sees_each_form():
    code = "a @ b\na @= b\nnp.dot(a, b)\nnp.matmul(a, b)\nnp.linalg.solve(a, b)\nx.T\n"
    assert _numpy_algebra(ast.parse(code)) == [
        (1, "@"), (2, "@"), (3, "np.dot"), (4, "np.matmul"), (5, "np.linalg")]


# Public names that no command, demo or benchmark reaches, each kept for one reason.
UNREACHED_BUT_KEPT = {
    "core.write_signal": "writes the measurement format that read_signal loads",
    "degrade.blur_kernel": "the sampled kernel, the reference for _blur_variance",
    "denoise.loss_denoising": "the loss whose upper bound acceptance criterion 06 checks",
    "denoise.score_from_denoiser": "the score whose Tweedie identity criterion 01 checks",
}


def _references(tree, skip=None):
    """Each name and attribute used under an ast node, outside any definition named skip.
    Text is not code: a docstring or comment mention does not count."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported(tree):
    """The names in a module's __all__, or none."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"),
                [])


def _unreached_public_names():
    """module.name for each __all__ entry that no other package code, demo or benchmark uses."""
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {module: _references(tree) for module, tree in package.items()}
    users = set().union(*(_references(ast.parse(path.read_text()))
                          for folder in ("demos", "perfbench")
                          for path in sorted((ROOT / folder).glob("*.py"))))
    unreached = []
    for module, tree in package.items():
        elsewhere = users.union(*(refs for other, refs in used.items() if other != module))
        unreached += [f"{module}.{name}" for name in _exported(tree)
                      if name not in elsewhere | _references(tree, skip=name)]
    return sorted(unreached)


def test_every_public_name_is_reached_or_kept_for_a_reason():
    unreached = _unreached_public_names()
    # the message lists each name unreached and not kept, or kept and now reached
    assert unreached == sorted(UNREACHED_BUT_KEPT), sorted(set(unreached) ^ set(UNREACHED_BUT_KEPT))


# Config keys that no command reads, each kept for one reason.
UNREAD_BUT_KEPT = {
    ("prior", "seed"): "perfbench's verify-16 config sets it, and a config setting it loads",
}


class _ReadRecorder(dict):
    """One config section that records each key a command reads from it."""

    def __init__(self, section, values, reads):
        super().__init__(values)
        self.section, self.reads = section, reads

    def __getitem__(self, key):
        self.reads.add((self.section, key))
        return super().__getitem__(key)


def test_every_config_key_is_read_or_kept_for_a_reason(tmp_path, monkeypatch, capsys):
    # a key nothing reads is accepted and silently ignored, so a config that sets it misleads
    reads, real_load = set(), cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: {
        section: _ReadRecorder(section, values, reads)
        for section, values in real_load(path).items()})
    for kind in ("blur", "inpaint", "blending"):
        path = tmp_path / f"{kind}.ini"
        path.write_text(f"[prior]\nshape = 4x4\n[process]\nkind = {kind}\nw_max = 2\n"
                        "[schedule]\nm = 1\nn_candidates = 5\ndataset_size = 2\n"
                        "[training]\nsteps = 2\nbatch_size = 2\n"
                        "[sampler]\ndelta_t = 0.25\n[verify]\nseeds = 2\npd_runs = 2\n"
                        "[sweep]\nruns = 2\n"
                        f"[output]\ndir = {tmp_path / kind}\n")
        for command in ("schedule", "train", "sample", "verify", "sweep"):
            assert cli.main([command, "--config", str(path)]) != cli.EXIT_USAGE, (kind, command)
    capsys.readouterr()
    unread = {(section, key) for section, keys in cli._SCHEMA.items() for key in keys} - reads
    assert unread == set(UNREAD_BUT_KEPT)


def test_reference_scan_skips_text_and_the_own_definition():
    code = 'def f():\n    """g, h.k and f in text."""\n    return f()\n\n\nx = g + h.k\n'
    assert _references(ast.parse(code), skip="f") == {"x", "g", "h", "k"}
    assert _references(ast.parse(code)) == {"f", "x", "g", "h", "k"}
