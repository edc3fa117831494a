"""The package root exports exactly the library API the README documents."""

import ast
import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparsenlms
from sparsenlms import harness
from sparsenlms.config import ExperimentConfig
from sparsenlms.harness import BerCurve, MseCurve, TrialResult

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "sparsenlms"


def library_use_section():
    return README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]


def documented_root_names():
    """Backquoted names of the README paragraph on what the root exports."""
    paragraph = library_use_section().strip().split("\n\n", 1)[0]
    assert paragraph.startswith("The package root exports four names:")
    exported = paragraph.split("Everything else", 1)[0]
    return re.findall(r"`([A-Za-z_]+)`", exported)


def test_root_exports_the_documented_names():
    names = documented_root_names()
    assert len(names) == 4
    assert sorted(sparsenlms.__all__) == sorted(names)
    namespace = {}
    exec("from sparsenlms import *", namespace)
    for name in names:
        assert namespace[name] is getattr(sparsenlms, name)


def test_root_raises_attribute_error_for_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsenlms.no_such_name


# Run in a fresh interpreter: the test process has numpy loaded already.
NUMPY_FREE = """
import contextlib, io, sys

def check(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

import sparsenlms
check("import sparsenlms")
from sparsenlms import cli
check("import sparsenlms.cli")
for subcommand in cli._RUNNERS:
    cli.build_config(cli.parse_invocation([subcommand]))
    check(f"build_config for {subcommand}")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    statuses = [
        cli.parse_and_dispatch(["mse-convergence", "--dump-config"]),
        cli.parse_and_dispatch(["--help"]),
        cli.parse_and_dispatch(["mse-convergence", "--override", "mu=-1"]),
    ]
assert statuses == [0, 0, 2], statuses
check("--dump-config, --help and a rejected override")
"""


def test_an_invocation_that_computes_nothing_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def imported_modules(path):
    """Top-level names of the modules ``path`` imports anywhere; ``"."`` for a sibling."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    return imported


def test_config_module_imports_only_the_standard_library():
    assert imported_modules(SRC / "config.py") <= set(sys.stdlib_module_names) | {"__future__"}


def test_theory_imports_only_math_and_numpy():
    # A closed form must not lean on the code it checks.
    assert imported_modules(ROOT / "tests" / "theory.py") == {"math", "numpy"}


def test_benchmark_imports_nothing_from_tests():
    # The benchmark runs from a checkout that holds only its own files, so
    # perfbench/checks.py keeps its own copy of the NLMS learning curve.
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        assert not imported_modules(path) & test_modules, path.name


def test_readme_trial_snippet_runs_and_names_every_field(capsys):
    section = library_use_section()
    snippets = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    (snippet,) = [s for s in snippets if "run_trial_rows(" in s]
    namespace = {}
    exec(snippet, namespace)
    trial = namespace["trial"]
    assert isinstance(trial, TrialResult)
    config = namespace["config"]
    assert trial.squared_error.shape == (config.max_iterations, 1)
    assert trial.final_estimate.shape == (1, *trial.channel.shape)
    assert capsys.readouterr().out
    # The paragraph after the snippet names every TrialResult field.
    after = section.split(snippet, 1)[1].split("\n\n", 2)[1]
    for entry in dataclasses.fields(TrialResult):
        assert f"`{entry.name}`" in after


def test_readme_runner_snippet_prints_the_same_pooled_and_serial(capsys, monkeypatch):
    # The library runners pool by default, on one process per CPU.
    snippet = re.findall(r"```python\n(.*?)```", library_use_section(), re.DOTALL)[0]
    assert "run_monte_carlo_mse(config)" in snippet
    assert "run_ber_sweep(config)" in snippet
    contexts = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        contexts.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    outputs = []
    for count in (2, 1):
        monkeypatch.setattr(harness, "_cpu_count", lambda: count)
        exec(snippet, {})
        outputs.append(capsys.readouterr().out)
    # One pool per runner at two CPUs, none at one.
    assert contexts == ["fork", "fork"]
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_readme_names_every_curve_field():
    paragraphs = [" ".join(p.split()) for p in library_use_section().split("\n\n")]
    (paragraph,) = [
        p for p in paragraphs if p.startswith("`run_monte_carlo_mse` returns one `MseCurve`")
    ]
    mse, ber = paragraph.split("`run_ber_sweep` returns one `BerCurve`", 1)
    for curve_type, text in ((MseCurve, mse), (BerCurve, ber)):
        for entry in dataclasses.fields(curve_type):
            assert f"`{entry.name}`" in text


def test_every_public_name_is_used_inside_the_package():
    # A public module-level name that only tests or the README use is
    # dead weight; the root's re-exports do not count as uses.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                defined = []
            unused += [
                f"{name}:{item}"
                for item in defined
                if not item.startswith("_") and item not in used
            ]
    assert unused == []


def test_every_config_field_is_read_by_the_harness_or_the_cli():
    # A field that no run reads is a dead knob; the checks in config.py
    # do not count as reads.
    read = set()
    for name in ("harness.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [e.name for e in dataclasses.fields(ExperimentConfig) if e.name not in read]
    assert unread == []
