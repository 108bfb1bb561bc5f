"""The trusted ``Mat._of`` path, the vector kernel and the batched
well-definedness check of ``GroupHom``, each against what it replaces.

``Mat(...)`` converts and checks every entry; ``Mat._of`` stores its rows as
given.  Here ``Mat._of`` is wrapped so that it checks what ``Mat(...)``
enforces, and whole commands run under the wrapper.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thrcalc import cli
from thrcalc.fgab import GroupHom, Mat, _vecmat, group, solve_left
from thrcalc.selftest import CRITERIA, run_criterion

from conftest import abelian_groups

DATA = "tests/data"
TRUSTED_OF = Mat.__dict__["_of"].__func__


def _violation(data, cols):
    """What ``Mat(data, cols=cols)`` would reject or convert, or None."""
    if type(data) is not tuple:
        return f"data is a {type(data).__name__}, not a tuple"
    for row in data:
        if type(row) is not tuple:
            return f"row {row!r} is a {type(row).__name__}, not a tuple"
        if len(row) != cols:
            return f"row {row!r} is not {cols} long"
        for x in row:
            if type(x) is not int:
                return f"entry {x!r} is a {type(x).__name__}, not an int"
    return None


def check_trusted_constructions(monkeypatch):
    """Wrap ``Mat._of`` with the checks of ``Mat(...)``.  Returns a record of
    the number of trusted constructions and of every violation (recorded
    rather than raised, so that no caller can swallow it)."""
    seen = {"calls": 0, "violations": []}

    def checked(data, cols):
        seen["calls"] += 1
        problem = _violation(data, cols)
        if problem is not None:
            seen["violations"].append(problem)
        return TRUSTED_OF(data, cols)

    monkeypatch.setattr(Mat, "_of", staticmethod(checked))
    return seen


def test_the_wrapper_flags_what_mat_would_convert(monkeypatch):
    seen = check_trusted_constructions(monkeypatch)
    Mat._of(((1, 2), (3, 4)), 2)
    assert seen == {"calls": 1, "violations": []}
    for data, cols in [(((True,),), 1), (((1, 2), (3,)), 2), (([1],), 1),
                       (((Fraction(2),),), 1), ([(1,)], 1)]:
        Mat._of(data, cols)
    assert len(seen["violations"]) == 5


@pytest.mark.parametrize("argv", [
    ("pi0thr", f"{DATA}/ring_f2t.yaml"),
    ("basechange", f"{DATA}/ring_f2.yaml", f"{DATA}/ring_f4.yaml",
     f"{DATA}/map_f2_to_f4.yaml"),
    ("nerve", f"{DATA}/monoid_nat.yaml", "--weight", "4", "--homology", "--fixed-pi0"),
    ("projective", "2", "--window", "3"),
], ids=["pi0thr", "basechange", "nerve", "projective"])
def test_commands_build_only_well_formed_trusted_matrices(argv, capsys, monkeypatch):
    assert cli.main(list(argv)) == 0
    plain = capsys.readouterr()
    seen = check_trusted_constructions(monkeypatch)
    assert cli.main(list(argv)) == 0
    wrapped = capsys.readouterr()
    assert seen["calls"] > 0
    assert not seen["violations"], seen["violations"][:5]
    assert (wrapped.out, wrapped.err) == (plain.out, plain.err)


@pytest.mark.parametrize("number", [9, 10])
def test_criteria_build_only_well_formed_trusted_matrices(number, monkeypatch):
    seen = check_trusted_constructions(monkeypatch)
    outcome = run_criterion(next(c for c in CRITERIA if c.number == number))
    assert seen["calls"] > 0
    assert not seen["violations"], seen["violations"][:5]
    assert outcome.ok, outcome.line


# ---------------------------------------------------------------------------
# the vector kernel
# ---------------------------------------------------------------------------


@st.composite
def vectors_and_matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entries = st.integers(-20, 20)
    m = Mat([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)
    x = draw(st.lists(st.one_of(entries, st.booleans()), min_size=rows, max_size=rows))
    return x, m


@settings(max_examples=200, deadline=None)
@given(vectors_and_matrices())
def test_vecmat_is_the_row_vector_product(case):
    x, m = case
    got = _vecmat(x, m)
    assert got == (Mat.row_vector(x) @ m).row(0)
    assert type(got) is tuple and all(type(a) is int for a in got)


def test_vecmat_keeps_the_shape_error():
    m = Mat([[1, 2], [3, 4]])
    with pytest.raises(ValueError) as expected:
        Mat.row_vector((1, 2, 3)) @ m
    with pytest.raises(ValueError) as got:
        _vecmat((1, 2, 3), m)
    assert str(got.value) == str(expected.value) == "shape mismatch 1x3 @ 2x2"


# ---------------------------------------------------------------------------
# the batched well-definedness check
# ---------------------------------------------------------------------------


def first_bad_relation(source, target, matrix):
    """The per-row check: the first source relation whose image lies outside
    the target's relation lattice (by ``solve_left``), or None."""
    for row in source.relations.data:
        image = (Mat.row_vector(row) @ matrix).row(0)
        if solve_left(target.relations, [image])[0] is None:
            return tuple(row)
    return None


@st.composite
def candidate_maps(draw):
    source = draw(abelian_groups())
    n = draw(st.integers(0, 3))
    entries = st.integers(-4, 4)
    matrix = Mat([[draw(entries) for _ in range(n)] for _ in range(source.n_gens)],
                 cols=n)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    if draw(st.booleans()):
        # make the map well defined: the images of the relations are relations
        rows += [list(r) for r in (source.relations @ matrix).data]
    return source, group(n, rows), matrix


@settings(max_examples=300, deadline=None)
@given(candidate_maps())
def test_batched_hom_check_agrees_with_the_per_row_loop(case):
    source, target, matrix = case
    bad = first_bad_relation(source, target, matrix)
    if bad is None:
        assert GroupHom(source, target, matrix).matrix == matrix
    else:
        with pytest.raises(ValueError) as err:
            GroupHom(source, target, matrix)
        assert str(err.value) == (
            f"not a well-defined homomorphism: relation {bad}"
            " maps outside the target relation lattice")


# ---------------------------------------------------------------------------
# the checks of the public constructor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make, message", [
    (lambda: Mat([[1, 2], [3]]), "ragged matrix"),
    (lambda: Mat([[1, 2]], cols=3), "cols mismatch"),
    (lambda: Mat([]), "cols required for a matrix with no rows"),
    (lambda: group(2, []).reduce((1,)), "element length mismatch"),
], ids=["ragged", "cols", "no-rows", "reduce-length"])
def test_public_checks_raise(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_public_constructor_stores_ints():
    m = Mat([[True, False], [Fraction(4, 2), Fraction(-3)]])
    assert m.data == ((1, 0), (2, -3))
    assert all(type(x) is int for row in m.data for x in row)
