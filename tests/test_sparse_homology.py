"""Homology from elementary divisors against the dense cycle-basis route.

``homology(c, q)`` reads the group off the elementary divisors of the two
differentials at ``q``: each complex is reduced from the top degree down,
each differential drops the rows that the pivots above it paired
(clearing), unit pivots are eliminated on sparse rows, ``snf`` factors the
residue, and the rank over ``F_2`` is checked on the side.  The oracle is
``_homology_data``, which presents the group on a basis of the cycle
lattice with dense Smith forms; the reducers on the full rows, without
clearing, are the oracle for the cleared ones.  Sizes: ``N`` at weights
1..9, ``N^2`` with the swap at weights (3, 2), (2, 2) and (4, 1), the
``P^2`` cube complexes of window 3, every complex that
``selftest.run_all()`` builds, and small random complexes with torsion,
their mapping fibers and their tensor products.
"""

import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import cli, homology as homology_module, selftest
from thrcalc.cubes import _substituted_weight_cube, halfspace_positives, total_fiber
from thrcalc.dihedral import dihedral_nerve_piece
from thrcalc.errors import CertificateError, SpecError
from thrcalc.fgab import Mat, free_group, group, snf
from thrcalc.homology import (
    ChainComplex,
    ChainMap,
    _elementary_divisors,
    _homology_data,
    _rank_mod2,
    homology,
    mapping_fiber,
    normalized_chains,
    tensor_complex,
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


def _nat_piece(weight):
    return normalized_chains(dihedral_nerve_piece(NAT, ((weight,),), weight)).complex


def _nat2_swap_piece(weight):
    q_max = cli._default_q_max(NAT2_SWAP, weight)
    return normalized_chains(dihedral_nerve_piece(NAT2_SWAP, (weight,), q_max)).complex


def _p2_cube(v):
    """The total fiber of the substituted ``P^2`` cube at weight ``v``."""
    return total_fiber(_substituted_weight_cube(2, v, halfspace_positives(2, v)))


NAT2_SWAP_WEIGHTS = [(3, 2), (2, 2), (4, 1)]
P2_WEIGHTS = [v for v in product(range(-3, 4), repeat=2)
              if any(v) and len(halfspace_positives(2, v)) == 2]


@pytest.mark.parametrize("weight", range(1, 10))
def test_nat_pieces_agree_with_the_dense_route(weight):
    c = _nat_piece(weight)
    assert_routes_agree(c, _around(c))


@pytest.mark.parametrize("weight", NAT2_SWAP_WEIGHTS)
def test_nat2_swap_pieces_agree_with_the_dense_route(weight):
    c = _nat2_swap_piece(weight)
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
def torsion_complexes(draw, top=3, size=6):
    """A complex in degrees 0..top with known homology, and that homology.

    It is a sum of up to ``size`` pieces ``Z --e--> Z`` from degree q to
    q - 1 and of up to ``size // 2`` free classes, with the basis of every
    degree then changed by a random unimodular matrix, so the differentials
    are dense and their entries are not all units."""
    pieces = draw(st.lists(
        st.tuples(st.integers(1, top), st.sampled_from([1, -1, 2, -2, 3, 4, 6, 12])),
        max_size=size,
    ))
    free = draw(st.lists(st.integers(0, top), max_size=size // 2))
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

    def counting(rows, pivots=None):
        calls.append(len(rows))
        return reduce(rows, pivots)

    monkeypatch.setattr(homology_module, "_elementary_divisors", counting)
    c = normalized_chains(dihedral_nerve_piece(NAT, ((5,),), 5)).complex
    for q in range(6):
        homology(c, q)
    assert len(calls) == 7  # d_0, ..., d_6, each once
    homology(c, 2)
    assert len(calls) == 7


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0),
                                   (3, 0, 5, 1, 4, 2)])
def test_each_differential_is_reduced_once_from_the_top_down(monkeypatch, order):
    """Whichever degree is asked first, each route reduces each of ``d_0,
    ..., d_6`` once, and a differential below the top only after the one
    above it, whose pivots it clears with."""
    seen = {"_elementary_divisors": [], "_rank_mod2": []}
    for name, degrees in seen.items():
        def spy(rows, pivots=None, real=getattr(homology_module, name), degrees=degrees):
            degrees.append(sys._getframe(1).f_locals["p"])
            return real(rows, pivots)

        monkeypatch.setattr(homology_module, name, spy)
    c = _nat_piece(5)
    for q in order:
        homology(c, q)
    for degrees in seen.values():
        assert sorted(degrees) == list(range(7))
        assert all(degrees.index(p) > degrees.index(p + 1) for p in range(c.hi))


def test_a_corrupted_face_rule_fails_d_d_0_and_exits_2(monkeypatch, capsys):
    """Swapping ``d_0`` and ``d_1`` in degree 3 of the piece's own face
    rule reaches the chains through ``faces`` and is caught by the ``d d =
    0`` check of ``ChainComplex``."""
    real = cli.dihedral_nerve_piece

    def corrupted(*args, **kwargs):
        piece = real(*args, **kwargs)
        face = piece._face
        piece._face = lambda q, i, x: face(q, (1 - i if i < 2 else i) if q == 3 else i, x)
        return piece

    monkeypatch.setattr(cli, "dihedral_nerve_piece", corrupted)
    code = cli.main(["nerve", "tests/data/monoid_nat.yaml", "--weight", "4", "--homology"])
    assert code == 2
    assert "d d != 0 from degree 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------


def _scalar_fiber(c, k):
    """The mapping fiber of ``k`` times the identity of ``c``."""
    return mapping_fiber(ChainMap(c, c, {q: [{i: k} for i in range(c.rank(q))]
                                         for q in c.support})).complex


@st.composite
def complexes_to_clear(draw):
    """A nerve piece of ``N`` or of ``N^2`` with the swap, a ``P^2`` cube
    complex, or the mapping fiber of a scalar on, or the tensor product of,
    small random complexes with torsion."""
    kind = draw(st.sampled_from(["nat", "nat2", "p2", "fiber", "tensor"]))
    if kind == "nat":
        return _nat_piece(draw(st.integers(1, 8)))
    if kind == "nat2":
        return _nat2_swap_piece(draw(st.sampled_from(NAT2_SWAP_WEIGHTS)))
    if kind == "p2":
        return _p2_cube(draw(st.sampled_from(P2_WEIGHTS)))
    if kind == "fiber":
        return _scalar_fiber(draw(torsion_complexes())[0], draw(st.integers(-3, 3)))
    # small factors: the residue of a tensor of two 6-piece complexes can
    # take the dense snf minutes, with clearing or without
    c, d = (draw(torsion_complexes(top=2, size=3))[0] for _ in range(2))
    return tensor_complex(c, d)


@given(complexes_to_clear(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_clearing_keeps_every_divisor_and_rank(c, rng):
    """In every degree, the divisors that the memo keeps (the rows cleared
    by the unit pivots above) are those of the full rows, and the rank over
    ``F_2`` of the rows that the echelon pivots above leave is that of the
    full rows, whichever degree is asked first."""
    degrees = list(_around(c))
    rng.shuffle(degrees)
    for q in degrees:
        homology(c, q)
    for q in degrees:
        rows = c._rows.get(q, ())
        echelon = c._divisors[q + 1][2]
        assert c._divisors[q][0] == _elementary_divisors(rows)
        assert (_rank_mod2([row for i, row in enumerate(rows) if i not in echelon])
                == _rank_mod2(rows))


def _overclearing(real):
    """The reducer ``real``, which on its first call that leaves a column of
    its rows unpaired reports one such column among its pivots: the degree
    below then drops one row that no pivot paired."""
    done = []

    def reduce(rows, pivots=None):
        found = real(rows, pivots)
        unpaired = sorted({j for row in rows for j in row} - pivots)
        if unpaired and not done:
            pivots.add(unpaired[0])
            done.append(unpaired[0])
        return found

    return reduce


@pytest.mark.parametrize("route", ["_elementary_divisors", "_rank_mod2"])
@pytest.mark.parametrize("build, arg", [(_nat_piece, w) for w in range(3, 9)]
                         + [(_nat2_swap_piece, w) for w in NAT2_SWAP_WEIGHTS]
                         + [(_p2_cube, v) for v in P2_WEIGHTS])
def test_clearing_a_row_that_no_pivot_paired_is_caught(monkeypatch, route, build, arg):
    """A route that drops one row more than its pivots paired raises
    CertificateError, or its homology disagrees with the dense route."""
    c = build(arg)
    monkeypatch.setattr(homology_module, route, _overclearing(getattr(homology_module, route)))
    try:
        caught = any(homology(c, q) != _homology_data(c, q)[0] for q in _around(c))
    except CertificateError:
        caught = True
    assert caught


def test_wrong_divisor_exits_4_naming_the_degree(monkeypatch, capsys):
    """A reducer that returns a 2 in place of one divisor 1 disagrees with
    the rank over ``F_2``, and the nerve command exits 4 (certificate
    failure) naming the differential's degree.

    The mutation is made in the reducer's answer, not in the complex: a
    corrupted entry of a boundary matrix is caught first by the ``d d = 0``
    check of ``ChainComplex`` (exit 2) and never reaches this check."""
    reduce = homology_module._elementary_divisors

    def wrong(rows, pivots=None):
        found = list(reduce(rows, pivots))
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
