"""Fuzz of the front door: the description loaders and ``main(argv)``.

Malformed input must come back as a ``SpecError`` (exit 2) or an
``InfeasibleError`` (exit 3), never as another exception, and a command
that fails on its input writes nothing to stdout.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc.cli import main
from thrcalc.errors import InfeasibleError, SpecError
from thrcalc.involutive_algebra import (
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
