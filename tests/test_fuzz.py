"""Fuzz of the front door: the description loaders and ``main(argv)``.

Malformed input must come back as a ``SpecError`` (exit 2) or an
``InfeasibleError`` (exit 3), never as another exception, and a command
that fails on its input writes nothing to stdout.  Description files load
to the same values under libyaml as under PyYAML's pure-Python loader.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc.cli import main
from thrcalc.errors import InfeasibleError, SpecError
from thrcalc.involutive_algebra import (
    load_description,
    monoid_from_description,
    ring_F2,
    ring_F4,
    ring_from_description,
    ring_map_from_description,
)

DATA = sorted(str(p) for p in (Path(__file__).resolve().parent / "data").glob("*.yaml"))
KEYS = ("generators", "orders", "unit", "table", "involution", "map", "monoid")

yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.sampled_from([0.5, "one", "x", "e", "t", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + ("other",)), inner, max_size=5),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(yaml_values, st.sampled_from(["ring", "monoid", "map"]))
def test_loaders_return_or_raise_input_errors(desc, kind):
    try:
        if kind == "ring":
            ring_from_description(desc)
        elif kind == "monoid":
            monoid_from_description(desc)
        else:
            ring_map_from_description(desc, ring_F2(), ring_F4())
    except (SpecError, InfeasibleError):
        pass


paths = st.sampled_from(DATA + ["tests/data/missing.yaml"])
depths = st.integers(-1, 4)
weights = st.one_of(
    st.integers(-6, 6).map(str),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", "x", "1,", "1.5", ",,"]),
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["pi0thr", "basechange", "nerve", "projective"]))
    if command == "pi0thr":
        argv = ["pi0thr", draw(paths)]
    elif command == "basechange":
        argv = ["basechange", draw(paths), draw(paths), draw(paths)]
    elif command == "nerve":
        argv = ["nerve", draw(paths), f"--weight={draw(weights)}",
                "--q-max", str(draw(depths))]
        argv += draw(st.lists(st.sampled_from(["--homology", "--fixed-pi0", "--validate"]),
                              unique=True))
        window = draw(st.none() | depths)
        argv += [] if window is None else ["--window", str(window)]
    else:
        argv = ["projective", draw(st.sampled_from(["1", "sigma", "2", "3", "4"]))]
        window = draw(st.none() | depths)
        argv += [] if window is None else ["--window", str(window)]
    return argv + ["--format", draw(st.sampled_from(["table", "structured"]))]


@settings(max_examples=60, deadline=None)
@given(command_lines())
def test_main_exits_with_a_documented_code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit on a malformed option
            code = exc.code
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# the YAML loader
# ---------------------------------------------------------------------------


def _load_both(path):
    """``load_description(path)``, and the file read by the pure-Python
    ``yaml.SafeLoader``."""
    with open(path) as fh:
        return load_description(path), yaml.load(fh, Loader=yaml.SafeLoader)


def test_data_files_load_equal_under_both_yaml_loaders():
    for path in DATA:
        loaded, safe = _load_both(path)
        assert loaded == safe, path


@settings(max_examples=100, deadline=None)
@given(yaml_values, st.sampled_from([yaml.safe_dump, json.dumps]))
def test_fuzzed_descriptions_load_equal_under_both_yaml_loaders(tmp_path_factory, desc, dump):
    path = tmp_path_factory.mktemp("yaml") / "description.yaml"
    path.write_text(dump({"description": desc}))
    loaded, safe = _load_both(path)
    assert loaded == safe


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_descriptions_are_parsed_by_libyaml(monkeypatch):
    readers = []
    original = yaml.reader.Reader.__init__

    def counted(self, stream):
        readers.append(stream)
        original(self, stream)

    monkeypatch.setattr(yaml.reader.Reader, "__init__", counted)
    for path in DATA:
        load_description(path)
    assert readers == []
