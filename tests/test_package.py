"""The package root exports exactly the library API the README documents."""

import re
from pathlib import Path

import sparsenlms

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_root_names():
    """Backquoted names of the README paragraph on what the root exports."""
    section = README.read_text().split("## Library use", 1)[1]
    paragraph = section.strip().split("\n\n", 1)[0]
    assert paragraph.startswith("The package root exports seven names:")
    exported = paragraph.split("Everything else", 1)[0]
    return re.findall(r"`([A-Za-z_]+)`", exported)


def test_root_exports_the_documented_names():
    names = documented_root_names()
    assert len(names) == 7
    assert sorted(sparsenlms.__all__) == sorted(names)
    namespace = {}
    exec("from sparsenlms import *", namespace)
    for name in names:
        assert namespace[name] is getattr(sparsenlms, name)
