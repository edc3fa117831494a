"""The package root exports exactly the library API the README documents."""

import ast
import dataclasses
import re
from pathlib import Path

import sparsenlms
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
