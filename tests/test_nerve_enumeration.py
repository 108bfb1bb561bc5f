"""The generated nerve pieces against the brute-force route they replaced.

Without a window, a nerve piece builds its levels from the divisor sets of
the orbit weights, generates its nondegenerate simplices directly and
counts each level by a dynamic program.  The oracle here is the eager
route: every level enumerated from the weight fibers (compositions for
``N``), then filtered with ``is_degenerate``.  The reflection-fixed levels
of ``sd_sigma`` are generated from their first half and counted the same
way; their oracle is the filter route, every level of the subdivision
kept where the reflection fixes it.  Sizes: ``N`` at weights 0..7 with
depth weight + 1, ``N^2`` with the swap at weights ``(a, b)`` with
``a, b <= 2``; the fixed levels of ``N`` at weights 0..7 with depths
``max(j, 3)`` and ``j + 1``, and of ``N^2`` with the swap at ``(a, b)``,
``a, b <= 2``, and at ``(3, 2)``, all at depth ``max(a + b, 3)``; and the
power-map fixed points for ``j <= 2``, ``r <= 3``, ``q_max <= 3`` and
``(j, r) = (3, 2)``.
"""

import json
from math import comb

import pytest

from thrcalc import cli, dihedral
from thrcalc.dihedral import (
    TruncDihedralSet,
    _periodic_tuples,
    dihedral_nerve_piece,
    fixed_subset,
    pi0,
    power_map_fixed_iso_check,
    sd_r,
    sd_sigma,
)
from thrcalc.errors import CertificateError
from thrcalc.fgab import free_group
from thrcalc.homology import homology, normalized_chains
from thrcalc.involutive_algebra import monoid_nat, weight_tuples

from helpers import monoid_nat_square_swap

NAT = monoid_nat()
NAT2_SWAP = monoid_nat_square_swap()
DATA = "tests/data"


def _compositions(total, slots, cache):
    """All tuples of ``slots`` cached unit vectors summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (cache[total],)
        return
    for first in range(total + 1):
        head = cache[first]
        for rest in _compositions(total - first, slots - 1, cache):
            yield (head,) + rest


def _eager_levels(monoid, orbit, q_max):
    """Every level of the piece, enumerated from the weight fibers."""
    levels = []
    for q in range(q_max + 1):
        found = set()
        for v in orbit:
            if monoid.rank == 1 and monoid.generators == ((1,),):
                cache = [(c,) for c in range(v[0] + 1)]
                found.update(_compositions(v[0], q + 1, cache))
            else:
                found.update(weight_tuples(monoid, v, q + 1))
        levels.append(found)
    return levels


PIECES = [
    pytest.param(NAT, ((j,),), j + 1, id=f"N-{j}") for j in range(8)
] + [
    pytest.param(NAT2_SWAP, ((a, b),), max(a + b, 1), id=f"N2swap-{a},{b}")
    for a in range(3) for b in range(3)
]


@pytest.mark.parametrize("monoid, orbit, q_max", PIECES)
def test_generated_piece_matches_the_eager_route(monoid, orbit, q_max):
    piece = dihedral_nerve_piece(monoid, orbit, q_max)
    orbit = dihedral.normalize_orbit(monoid, orbit)
    eager = TruncDihedralSet(
        q_max, _eager_levels(monoid, orbit, q_max), piece._face, piece._degeneracy
    )
    for q in range(q_max + 1):
        assert piece.nondegenerate(q) == eager.nondegenerate(q)
        assert piece.count(q) == eager.count(q)
    assert piece.simplices.built() == ()
    for q in range(q_max + 1):
        assert piece.simplices[q] == eager.simplices[q]
        assert piece.count(q) == len(eager.simplices[q])
    assert piece.simplices.built() == tuple(range(q_max + 1))


def _filtered_fixed(sub, q):
    """The filter route: level ``q`` of ``sub`` where the reflection fixes it."""
    return [s for s in sub.simplices[q] if sub.invol(q, s) == s]


FIXED_PIECES = [
    pytest.param(NAT, ((j,),), depth, id=f"N-{j}-depth-{depth}")
    for j in range(8) for depth in sorted({max(j, 3), j + 1})
] + [
    pytest.param(NAT2_SWAP, ((a, b),), max(a + b, 3), id=f"N2swap-{a},{b}")
    for a, b in [(a, b) for a in range(3) for b in range(3)] + [(3, 2)]
]


@pytest.mark.parametrize("monoid, orbit, q_max", FIXED_PIECES)
def test_generated_fixed_levels_match_the_filter_route(monoid, orbit, q_max):
    piece = dihedral_nerve_piece(monoid, orbit, q_max)
    sub = sd_sigma(piece)
    fixed = fixed_subset(sub)
    _, count = sub._fixed_levels
    assert fixed.simplices.built() == ()
    levels = list(fixed.simplices)
    assert piece.simplices.built() == ()
    free = len(dihedral.normalize_orbit(monoid, orbit)) == 2
    for q, level in enumerate(levels):
        assert level == tuple(sorted(_filtered_fixed(sub, q)))
        assert count(q) == fixed.count(q) == len(level)
        assert not (free and level)
    # the piece's own rule covers the even degrees too, which have no middle
    generate, count = piece._fixed_levels
    for n in range(q_max + 1):
        want = _filtered_fixed(piece, n)
        assert sorted(generate(n)) == want
        assert count(n) == len(want)


def _rotation_fixed(sub, q):
    return {s for s in sub.simplices[q] if sub.rotate(q, s) == s}


def _composition_scan(weight, slots, period):
    cache = [(c,) for c in range(weight + 1)]
    r = slots // period
    return [
        tup for tup in _compositions(weight, slots, cache)
        if tup[:period] * r == tup
    ]


POWER_CASES = [
    (j, r, q_max)
    for j in range(3) for r in range(1, 4) for q_max in range(4)
] + [(3, 2, q_max) for q_max in range(4)]


@pytest.mark.parametrize("j, r, q_max", POWER_CASES)
def test_direct_fixed_tuples_match_the_filtered_subdivision(j, r, q_max):
    big = dihedral_nerve_piece(NAT, ((r * j,),), r * (q_max + 1) - 1)
    sub = sd_r(big, r)
    assert sub.q_max == q_max
    counts = []
    for q in range(q_max + 1):
        fixed = _rotation_fixed(sub, q)
        assert set(_periodic_tuples(NAT, (r * j,), r, q + 1)) == fixed
        counts.append(len(fixed))
        slots = r * (q + 1)
        for weight in range(r * j + 1, r * j + r):
            direct = _periodic_tuples(NAT, (weight,), r, q + 1)
            assert direct == _composition_scan(weight, slots, q + 1) == []
    witness = power_map_fixed_iso_check(NAT, j, r, q_max)
    assert witness.ok, witness.detail
    assert witness.degree_counts == tuple(counts)
    assert witness.empty_weights == tuple(range(r * j + 1, r * j + r))


def _miscount_triples(monkeypatch):
    """Make the level count one too high for 2-simplices."""
    count = dihedral._DivisorFibers.count
    monkeypatch.setattr(
        dihedral._DivisorFibers, "count",
        lambda self, length: count(self, length) + (length == 3),
    )


def test_corrupted_count_fails_the_nerve_certificate(monkeypatch, capsys):
    _miscount_triples(monkeypatch)
    code = cli.main(["nerve", f"{DATA}/monoid_nat.yaml", "--weight", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "Eilenberg-Zilber" in captured.err


def test_corrupted_count_fails_when_a_level_is_built(monkeypatch):
    piece = dihedral_nerve_piece(NAT, ((3,),), 3)
    _miscount_triples(monkeypatch)
    assert len(piece.simplices[1]) == 4
    with pytest.raises(CertificateError, match="built"):
        piece.simplices[2]


def test_corrupted_fixed_count_fails_the_fixed_pi0_certificate(monkeypatch, capsys):
    fixed_count = dihedral._DivisorFibers.fixed_count
    monkeypatch.setattr(
        dihedral._DivisorFibers, "fixed_count",
        lambda self, n: fixed_count(self, n) + 1,
    )
    code = cli.main(["nerve", f"{DATA}/monoid_nat.yaml", "--weight", "3",
                     "--fixed-pi0"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "counted" in captured.err


def test_generated_non_fixed_simplex_is_a_certificate_error(monkeypatch):
    fixed_tuples = dihedral._DivisorFibers.fixed_tuples

    def one_wrong(self, n):
        found = fixed_tuples(self, n)
        return [((0,), (1,), (2,), (0,))] + found[1:] if n == 3 else found

    monkeypatch.setattr(dihedral._DivisorFibers, "fixed_tuples", one_wrong)
    fixed = fixed_subset(sd_sigma(dihedral_nerve_piece(NAT, ((3,),), 3)))
    assert len(fixed.simplices[0]) == 4
    with pytest.raises(CertificateError, match="not fixed"):
        fixed.simplices[1]


def test_generated_fixed_level_not_closed_is_a_certificate_error():
    # the reflection swaps the two vertices and fixes the edge; a rule that
    # generates the edge alone passes its count but not the closure check
    def face(q, i, x):
        return "a" if i == 0 else "b"

    def invol(q, x):
        return {"a": "b", "b": "a"}.get(x, x)

    fixed_levels = [[], ["e"]]
    broken = TruncDihedralSet(
        1, [["a", "b"], ["e"]], face, lambda q, i, x: "e", invol=invol,
        flag="levelwise",
        fixed_levels=(fixed_levels.__getitem__, lambda q: len(fixed_levels[q])),
    )
    fixed = fixed_subset(broken)
    assert fixed.simplices[0] == ()
    with pytest.raises(CertificateError, match="face d_0"):
        fixed.simplices[1]


def _recording(monkeypatch, name):
    """Replace ``cli``'s ``name`` by a wrapper that keeps every result."""
    made = []
    fn = getattr(cli, name)

    def recording(*args, **kwargs):
        made.append(fn(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, name, recording)
    return made


def test_counts_at_weight_twelve_build_no_level(monkeypatch, capsys):
    pieces = _recording(monkeypatch, "dihedral_nerve_piece")
    code = cli.main(["nerve", f"{DATA}/monoid_nat.yaml", "--weight", "12",
                     "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["counts"] == [comb(12 + q, q) for q in range(13)]
    assert payload["nondegenerate_counts"] == [comb(12, q) for q in range(13)]
    (piece,) = pieces
    assert piece.simplices.built() == ()


def test_fixed_pi0_at_weight_twelve_builds_no_level_of_the_piece(monkeypatch, capsys):
    pieces = _recording(monkeypatch, "dihedral_nerve_piece")
    fixed_sets = _recording(monkeypatch, "fixed_subset")
    code = cli.main(["nerve", f"{DATA}/monoid_nat.yaml", "--weight", "12",
                     "--fixed-pi0", "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["fixed_pi0"] == 2
    (piece,) = pieces
    assert piece.simplices.built() == ()
    (fixed,) = fixed_sets
    assert fixed.q_max == 5
    assert fixed.simplices.built() == (0, 1)  # the two levels pi0 reads


@pytest.mark.parametrize("j", range(1, 9))
def test_weight_pieces_of_n_are_circles_with_two_fixed_components(j):
    piece = dihedral_nerve_piece(NAT, ((j,),), j)
    chains = normalized_chains(piece)
    assert chains.valid_hi is None
    groups = [homology(chains.complex, q) for q in range(j + 1)]
    assert groups[:2] == [free_group(1), free_group(1)]
    assert all(h.is_trivial() for h in groups[2:])
    deep = piece if j >= 3 else dihedral_nerve_piece(NAT, ((j,),), 3)
    assert pi0(fixed_subset(sd_sigma(deep))) == 2
