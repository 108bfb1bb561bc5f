"""Homology from elementary divisors against the dense cycle-basis route.

``homology(c, q)`` reads the group off the elementary divisors of the two
differentials at ``q``: unit pivots are eliminated on sparse rows, ``snf``
factors the residue, and the rank over ``F_2`` is checked on the side.
The oracle is ``_homology_data``, which presents the group on a basis of
the cycle lattice with dense Smith forms.  Sizes: ``N`` at weights 1..9,
``N^2`` with the swap at weights (3, 2), (2, 2) and (4, 1), every complex
that ``selftest.run_all()`` builds, and small random complexes with
torsion.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import cli, homology as homology_module, selftest
from thrcalc.dihedral import dihedral_nerve_piece
from thrcalc.errors import SpecError
from thrcalc.fgab import Mat, free_group, group, snf
from thrcalc.homology import (
    ChainComplex,
    _elementary_divisors,
    _homology_data,
    _rank_mod2,
    homology,
    normalized_chains,
)
from thrcalc.involutive_algebra import monoid_nat

from helpers import monoid_nat_square_swap

NAT = monoid_nat()
NAT2_SWAP = monoid_nat_square_swap()


def assert_routes_agree(c, degrees):
    for q in degrees:
        dense = _homology_data(c, q)[0]
        sparse = homology(c, q)
        assert dense == sparse, (c, q)
        assert dense.invariant_factors == sparse.invariant_factors
        assert dense.free_rank == sparse.free_rank


def _around(c):
    return range(c.lo - 1, c.hi + 2)


@pytest.mark.parametrize("weight", range(1, 10))
def test_nat_pieces_agree_with_the_dense_route(weight):
    piece = dihedral_nerve_piece(NAT, ((weight,),), weight)
    c = normalized_chains(piece).complex
    assert_routes_agree(c, _around(c))


@pytest.mark.parametrize("weight", [(3, 2), (2, 2), (4, 1)])
def test_nat2_swap_pieces_agree_with_the_dense_route(weight):
    q_max = cli._default_q_max(NAT2_SWAP, weight)
    piece = dihedral_nerve_piece(NAT2_SWAP, (weight,), q_max)
    c = normalized_chains(piece).complex
    assert_routes_agree(c, _around(c))


def test_every_selftest_complex_agrees_with_the_dense_route(monkeypatch):
    built = []
    init = ChainComplex.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert len(built) > 500
    for c in built:
        assert_routes_agree(c, _around(c))


def test_sparse_rows_are_checked_and_read_back_dense():
    c = ChainComplex({0: 2, 1: 1}, {1: [{0: 2, 1: -1}]})
    assert c.diff(1) == Mat([[2, -1]])
    assert homology(c, 0) == free_group(1)
    with pytest.raises(SpecError, match="does not fit"):
        ChainComplex({0: 2, 1: 1}, {1: [{2: 1}]})
    with pytest.raises(SpecError, match="does not fit"):
        ChainComplex({0: 2, 1: 1}, {1: [{0: 1}, {1: 1}]})
    with pytest.raises(SpecError, match="d d != 0"):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 3}]})


# ---------------------------------------------------------------------------
# random complexes with torsion
# ---------------------------------------------------------------------------


def _unimodular_pair(n, rng):
    """A random unimodular matrix and its inverse, as products of
    elementary row additions."""
    p, p_inv = Mat.identity(n), Mat.identity(n)
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        e = [[int(a == b) + (k if (a, b) == (i, j) else 0) for b in range(n)]
             for a in range(n)]
        e_inv = [[int(a == b) - (k if (a, b) == (i, j) else 0) for b in range(n)]
                 for a in range(n)]
        p, p_inv = Mat(e) @ p, p_inv @ Mat(e_inv)
    return p, p_inv


@st.composite
def torsion_complexes(draw, top=3):
    """A complex in degrees 0..top with known homology, and that homology.

    It is a sum of pieces ``Z --e--> Z`` from degree q to q - 1 and of
    free classes, with the basis of every degree then changed by a random
    unimodular matrix, so the differentials are dense and their entries
    are not all units."""
    pieces = draw(st.lists(
        st.tuples(st.integers(1, top), st.sampled_from([1, -1, 2, -2, 3, 4, 6, 12])),
        max_size=6,
    ))
    free = draw(st.lists(st.integers(0, top), max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    basis = {q: [] for q in range(top + 1)}
    for n, (q, _) in enumerate(pieces):
        basis[q].append(("top", n))
        basis[q - 1].append(("bottom", n))
    for n, q in enumerate(free):
        basis[q].append(("free", n))
    for level in basis.values():
        rng.shuffle(level)
    ranks = {q: len(level) for q, level in basis.items()}
    change = {q: _unimodular_pair(n, rng) for q, n in ranks.items()}
    diffs = {}
    for q in range(1, top + 1):
        if not ranks[q] or not ranks[q - 1]:
            continue
        at = {label: j for j, label in enumerate(basis[q - 1])}
        rows = [[0] * ranks[q - 1] for _ in basis[q]]
        for i, (kind, n) in enumerate(basis[q]):
            if kind == "top":
                rows[i][at["bottom", n]] = pieces[n][1]
        d = Mat(rows, cols=ranks[q - 1])
        diffs[q] = change[q][0] @ d @ change[q - 1][1]
    expected = {}
    for q in range(top + 1):
        torsion = [abs(e) for p, e in pieces if p == q + 1 and abs(e) >= 2]
        n = free.count(q) + len(torsion)
        expected[q] = group(n, [[e if j == i else 0 for j in range(n)]
                                for i, e in enumerate(torsion)])
    return ChainComplex(ranks, diffs), expected


@given(torsion_complexes())
@settings(max_examples=150, deadline=None)
def test_random_torsion_complexes_agree_with_the_dense_route(drawn):
    c, expected = drawn
    assert_routes_agree(c, _around(c))
    for q, h in expected.items():
        assert homology(c, q) == h


def _sparse(m):
    return [{j: a for j, a in enumerate(row) if a} for row in m.data]


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_elementary_divisors_are_the_smith_diagonal(rows, cols, data):
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4])
    m = Mat(data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), cols=cols)
    s = snf(m)[0]
    diagonal = tuple(d for d in (s.data[i][i] for i in range(min(rows, cols))) if d)
    assert _elementary_divisors(_sparse(m)) == diagonal
    assert _rank_mod2(_sparse(m)) == sum(d % 2 for d in diagonal)


# ---------------------------------------------------------------------------
# memo and certificate
# ---------------------------------------------------------------------------


def test_each_differential_is_reduced_once(monkeypatch):
    calls = []
    reduce = homology_module._elementary_divisors

    def counting(rows):
        calls.append(len(rows))
        return reduce(rows)

    monkeypatch.setattr(homology_module, "_elementary_divisors", counting)
    c = normalized_chains(dihedral_nerve_piece(NAT, ((5,),), 5)).complex
    for q in range(6):
        homology(c, q)
    assert len(calls) == 7  # d_0, ..., d_6, each once
    homology(c, 2)
    assert len(calls) == 7


def test_wrong_divisor_exits_4_naming_the_degree(monkeypatch, capsys):
    """A reducer that returns a 2 in place of one divisor 1 disagrees with
    the rank over ``F_2``, and the nerve command exits 4 (certificate
    failure) naming the differential's degree.

    The mutation is made in the reducer's answer, not in the complex: a
    corrupted entry of a boundary matrix is caught first by the ``d d = 0``
    check of ``ChainComplex`` (exit 2) and never reaches this check."""
    reduce = homology_module._elementary_divisors

    def wrong(rows):
        found = list(reduce(rows))
        if 1 in found:
            found[found.index(1)] = 2
        return tuple(sorted(found))

    monkeypatch.setattr(homology_module, "_elementary_divisors", wrong)
    code = cli.main(["nerve", "tests/data/monoid_nat.yaml", "--weight", "4",
                     "--homology"])
    err = capsys.readouterr().err
    assert code == 4
    assert "differential in degree 2" in err  # d_1 of a piece of N is zero
    assert "over F_2" in err
