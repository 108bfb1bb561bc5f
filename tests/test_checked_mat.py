"""Only ``fgab`` builds a matrix with the trusted ``Mat._of``; every other
module of the package goes through the checked ``Mat(...)``, which
converts each entry with ``int`` and checks the shape."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thrcalc"


def trusted_builds(source):
    """The lines of ``source`` that read ``Mat._of`` (or ``module.Mat._of``)."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == "_of"
        and getattr(n.value, "id", getattr(n.value, "attr", None)) == "Mat"
    )


def test_the_scan_finds_a_trusted_build():
    source = ("from . import fgab\nfrom .fgab import Mat\n\n"
              "checked = Mat([[1]])\ntrusted = Mat._of(((1,),), 1)\n"
              "build = fgab.Mat._of\n")
    assert trusted_builds(source) == [5, 6]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "fgab.py"],
    ids=lambda p: p.name,
)
def test_only_fgab_uses_the_trusted_constructor(path):
    assert trusted_builds(path.read_text()) == []
