"""Tests for truncated dihedral sets, monoid nerves and subdivisions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import dihedral
from thrcalc.dihedral import (
    TruncDihedralSet,
    apply_monotone,
    circle_model,
    dihedral_nerve_piece,
    fixed_subset,
    normalize_orbit,
    pi0,
    power_map_fixed_iso_check,
    sd_r,
    sd_sigma,
    shuffle_iso_check,
    trivial_monoid,
    validate_structure,
    windowed_simplex_tuples,
)
from thrcalc.errors import CertificateError, InfeasibleError, SpecError
from thrcalc.involutive_algebra import (
    AffineMonoid,
    elements_in_ball,
    monoid_int_sigma,
    monoid_nat,
)

from helpers import monoid_int, real_nerve, sign_splitting_check

NAT = monoid_nat()
ZSIGMA = monoid_int_sigma()


# ---------------------------------------------------------------------------
# nerve pieces
# ---------------------------------------------------------------------------


def test_weight_zero_piece_is_a_point():
    p = dihedral_nerve_piece(NAT, ((0,),), 3)
    assert [p.count(q) for q in range(4)] == [1, 1, 1, 1]
    assert p.nondegenerate_counts() == (1, 0, 0, 0)
    assert validate_structure(p).ok


def test_weight_two_nondegenerate_counts():
    p = dihedral_nerve_piece(NAT, ((2,),), 3)
    assert p.nondegenerate_counts() == (1, 2, 1, 0)
    assert p.nondegenerate(0) == (((2,),),)
    assert set(p.nondegenerate(1)) == {((0,), (2,)), ((1,), (1,))}
    assert p.nondegenerate(2) == (((0,), (1,), (1,)),)


def test_euler_characteristic_of_nondegenerate_counts_vanishes():
    for j in range(1, 7):
        piece = dihedral_nerve_piece(NAT, ((j,),), j + 1)
        nd = piece.nondegenerate_counts()
        assert sum((-1) ** q * c for q, c in enumerate(nd)) == 0
        assert nd[j + 1] == 0


def test_degeneracy_criterion_matches_zero_entries():
    zero = (0,)
    for j in (1, 2, 3):
        piece = dihedral_nerve_piece(NAT, ((j,),), 3)
        for q in range(4):
            for x in piece.simplices[q]:
                assert piece.is_degenerate(q, x) == any(
                    e == zero for e in x[1:]
                )


def test_truncation_certificate_bounds_nondegenerates():
    piece = dihedral_nerve_piece(NAT, ((3,),), 5)
    bound = piece.nondegenerate_bound
    assert bound == 3
    for q in range(bound + 1, 6):
        assert piece.nondegenerate(q) == ()


def test_a_slice_of_simplex_levels_builds_each_level():
    piece = dihedral_nerve_piece(monoid_nat(), ((2,),), 2)
    levels = piece.simplices[0:2]
    assert levels == (piece.simplices[0], piece.simplices[1])
    assert all(type(level) is tuple and level for level in levels)
    assert piece.simplices[::-1] == tuple(piece.simplices[q] for q in (2, 1, 0))
    # a sliced level is checked against its count like any other
    wrong = TruncDihedralSet(1, lambda q: [("v", i) for i in range(q + 1)],
                             lambda q, i, x: x, lambda q, i, x: x, level_count=lambda q: 1)
    with pytest.raises(CertificateError, match="degree 1: 2 simplices built but 1 counted"):
        wrong.simplices[:]


def test_infinite_fiber_is_rejected():
    with pytest.raises(InfeasibleError):
        dihedral_nerve_piece(monoid_int(), ((1,),), 1)


def test_integers_weight_zero_vertices_alone_are_fine():
    p = dihedral_nerve_piece(monoid_int(), ((5,),), 0)
    assert p.count(0) == 1


def test_orbit_normalization():
    assert normalize_orbit(ZSIGMA, ((1,),)) == ((-1,), (1,))
    assert normalize_orbit(ZSIGMA, ((-1,), (1,))) == ((-1,), (1,))
    with pytest.raises(SpecError):
        normalize_orbit(ZSIGMA, ((1,), (2,)))
    with pytest.raises(SpecError):
        normalize_orbit(ZSIGMA, ())


def test_windowed_piece_is_structure_closed():
    piece = dihedral_nerve_piece(ZSIGMA, ((1,),), 2, window=3)
    assert [piece.count(q) for q in range(3)] == [2, 8, 24]
    assert validate_structure(piece).ok


def test_window_requires_signed_permutation_involution():
    # this involution sends (x, y) to (x + 2y, -y), distorting l1 norms,
    # so windowed truncations would not be closed under the reflection
    shear = AffineMonoid(
        [(1, 0), (2, 1), (4, -1)], w=[[1, 0], [2, -1]]
    )
    with pytest.raises(SpecError):
        dihedral_nerve_piece(shear, ((1, 0),), 1, window=4)


def test_window_partitions_into_orbit_pieces():
    bound, q_max = 3, 2
    per_degree = [
        windowed_simplex_tuples(elements_in_ball(ZSIGMA, bound), q + 1, bound)
        for q in range(q_max + 1)
    ]
    orbits = set()
    for tup in per_degree[-1]:
        total = tuple(map(sum, zip(*tup)))
        orbits.add(normalize_orbit(ZSIGMA, (total,)))
    pieces = {
        orbit: dihedral_nerve_piece(ZSIGMA, orbit, q_max, window=bound)
        for orbit in orbits
    }
    for q in range(q_max + 1):
        union = []
        for piece in pieces.values():
            union.extend(piece.simplices[q])
        assert len(union) == len(set(union)), "pieces overlap"
        assert set(union) == set(per_degree[q])


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


def test_validate_structure_on_the_catalog():
    objects = [
        dihedral_nerve_piece(NAT, ((j,),), 3) for j in range(4)
    ] + [
        dihedral_nerve_piece(ZSIGMA, ((1,),), 2, window=3),
        circle_model(4),
        real_nerve(NAT, 2, window=2),
        real_nerve(trivial_monoid(), 3),
    ]
    for x in objects:
        report = validate_structure(x)
        assert report.ok, report.detail


def test_validate_structure_reports_broken_reflection():
    good = dihedral_nerve_piece(NAT, ((2,),), 2)

    def bad_invol(q, x):  # forgets to reverse the tail
        return x

    broken = TruncDihedralSet(
        good.q_max,
        good.simplices,
        good.face,
        good.degeneracy,
        rotate=good.rotate,
        invol=bad_invol,
        flag="dihedral",
    )
    report = validate_structure(broken)
    assert not report.ok
    assert "w" in report.detail


def test_validate_structure_reports_broken_rotation():
    good = dihedral_nerve_piece(NAT, ((2,),), 2)

    def bad_rotate(q, x):  # rotates the wrong way (no-op up to degree 1)
        return x[1:] + (x[0],)

    broken = TruncDihedralSet(
        good.q_max,
        good.simplices,
        good.face,
        good.degeneracy,
        rotate=bad_rotate,
        invol=good.invol,
        flag="cyclic",
    )
    report = validate_structure(broken)
    assert not report.ok
    assert "t" in report.detail


def test_faces_are_the_checked_faces_in_order():
    piece = dihedral_nerve_piece(NAT, ((4,),), 4)
    circle = circle_model(3)
    for x in (piece, circle):
        for q in range(1, x.q_max + 1):
            for s in x.simplices[q]:
                assert x.faces(q, s) == [x.face(q, i, s) for i in range(q + 1)]
    for q in (-1, 0, 5):
        with pytest.raises(SpecError, match=f"faces undefined in degree {q}"):
            piece.faces(q, piece.simplices[0][0])


def test_structure_map_bounds_are_enforced():
    p = dihedral_nerve_piece(NAT, ((1,),), 1)
    with pytest.raises(SpecError):
        p.face(0, 0, p.simplices[0][0])
    with pytest.raises(SpecError):
        p.degeneracy(1, 0, p.simplices[1][0])
    with pytest.raises(SpecError):
        circle_model(2).rotate(1, ("P",))


# ---------------------------------------------------------------------------
# the circle
# ---------------------------------------------------------------------------


def test_circle_model_shape():
    c = circle_model(4)
    assert [c.count(q) for q in range(5)] == [1, 2, 3, 4, 5]
    assert c.nondegenerate_counts() == (1, 1, 0, 0, 0)
    # identity reflection on the nondegenerate simplices
    assert c.invol(0, ("P",)) == ("P",)
    assert c.invol(1, ("J", 1)) == ("J", 1)
    assert validate_structure(c).ok
    assert pi0(c) == 1


# ---------------------------------------------------------------------------
# real nerves
# ---------------------------------------------------------------------------


def test_real_nerve_of_trivial_monoid_is_a_point():
    t = real_nerve(trivial_monoid(), 3)
    assert [t.count(q) for q in range(4)] == [1, 1, 1, 1]
    assert validate_structure(t).ok


def test_real_nerve_needs_a_window_for_infinite_monoids():
    with pytest.raises(SpecError):
        real_nerve(NAT, 2)


def test_real_nerve_window_example():
    rn = real_nerve(NAT, 2, window=2)
    assert [rn.count(q) for q in range(3)] == [1, 3, 6]
    assert set(rn.simplices[2]) == {
        ((0,), (0,)),
        ((0,), (1,)),
        ((0,), (2,)),
        ((1,), (0,)),
        ((1,), (1,)),
        ((2,), (0,)),
    }
    assert validate_structure(rn).ok


def test_sign_splitting_of_free_orbit_piece():
    for window in (3, 4):
        witness = sign_splitting_check(ZSIGMA, 1, 2, window=window)
        assert witness.ok, witness.detail
    with pytest.raises(SpecError):
        sign_splitting_check(ZSIGMA, 0, 2, window=3)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


def test_shuffle_nat_nat():
    witness = shuffle_iso_check(NAT, NAT, ((1,), (1,)), 3)
    assert witness.ok, witness.detail
    assert witness.degree_counts == (1, 4, 9, 16)


def test_shuffle_with_trivial_factor():
    witness = shuffle_iso_check(NAT, trivial_monoid(), ((2,), (0,)), 3)
    assert witness.ok, witness.detail
    piece = dihedral_nerve_piece(NAT, ((2,),), 3)
    assert witness.degree_counts == tuple(piece.count(q) for q in range(4))


def test_shuffle_windowed_with_sign_factor():
    witness = shuffle_iso_check(NAT, ZSIGMA, ((2,), (0,)), 2, window=4)
    assert witness.ok, witness.detail


# ---------------------------------------------------------------------------
# operator algebra and subdivisions
# ---------------------------------------------------------------------------


@st.composite
def monotone_triples(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    k = draw(st.integers(0, 3))
    mu = tuple(sorted(draw(
        st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1)
    )))
    nu = tuple(sorted(draw(
        st.lists(st.integers(0, m), min_size=k + 1, max_size=k + 1)
    )))
    return n, mu, nu


@settings(max_examples=120, deadline=None)
@given(monotone_triples())
def test_monotone_action_is_functorial(triple):
    n, mu, nu = triple
    piece = dihedral_nerve_piece(NAT, ((2,),), 3)
    composite = tuple(mu[v] for v in nu)
    for x in piece.simplices[n]:
        via_steps = apply_monotone(
            piece, len(mu) - 1, nu, apply_monotone(piece, n, mu, x)
        )
        assert apply_monotone(piece, n, composite, x) == via_steps


def test_sd_sigma_vertices_of_weight_two():
    sd = sd_sigma(dihedral_nerve_piece(NAT, ((2,),), 3))
    assert sd.q_max == 1
    assert sd.simplices[0] == (((0,), (2,)), ((1,), (1,)), ((2,), (0,)))
    assert validate_structure(sd).ok


def test_sd_sigma_depth_errors():
    with pytest.raises(SpecError):
        sd_sigma(dihedral_nerve_piece(NAT, ((1,),), 0))


def test_sd_one_is_the_identity():
    piece = dihedral_nerve_piece(NAT, ((2,),), 3)
    sub = sd_r(piece, 1)
    assert sub.q_max == piece.q_max
    for q in range(sub.q_max + 1):
        assert sub.simplices[q] == piece.simplices[q]
        for x in sub.simplices[q]:
            if q >= 1:
                for i in range(q + 1):
                    assert sub.face(q, i, x) == piece.face(q, i, x)
            if q < sub.q_max:
                for i in range(q + 1):
                    assert sub.degeneracy(q, i, x) == piece.degeneracy(q, i, x)


def test_sd_r_levelwise_cyclic_action():
    piece = dihedral_nerve_piece(NAT, ((2,),), 5)
    sub = sd_r(piece, 2)
    assert sub.q_max == 2
    assert sub.cyclic_order == 2
    report = validate_structure(sub)
    assert report.ok, report.detail
    for q in range(sub.q_max + 1):
        for x in sub.simplices[q]:
            assert sub.rotate(q, sub.rotate(q, x)) == x


# ---------------------------------------------------------------------------
# fixed points and path components
# ---------------------------------------------------------------------------


def test_fixed_subset_of_subdivided_weight_two():
    sd = sd_sigma(dihedral_nerve_piece(NAT, ((2,),), 3))
    fixed = fixed_subset(sd)
    assert fixed.simplices[0] == sd.simplices[0]
    assert set(fixed.simplices[1]) == {
        x for x in sd.simplices[1] if x[1] == x[3]
    }
    assert validate_structure(fixed).ok
    assert pi0(fixed) == 2


def test_fixed_pi0_is_two_for_small_weights():
    for j in range(1, 6):
        fixed = fixed_subset(sd_sigma(dihedral_nerve_piece(NAT, ((j,),), 3)))
        assert pi0(fixed) == 2


def test_fixed_subset_with_trivial_involution_is_everything():
    piece = dihedral_nerve_piece(NAT, ((2,),), 3)
    trivial = TruncDihedralSet(
        piece.q_max,
        piece.simplices,
        piece.face,
        piece.degeneracy,
        invol=lambda q, x: x,
        flag="simplicial",
    )
    fixed = fixed_subset(sd_sigma(trivial))
    sub = sd_sigma(piece)
    for q in range(fixed.q_max + 1):
        assert fixed.simplices[q] == sub.simplices[q]


def test_fixed_subset_of_free_involution_is_empty():
    piece = dihedral_nerve_piece(ZSIGMA, ((1,),), 3, window=3)
    fixed = fixed_subset(sd_sigma(piece))
    assert all(fixed.count(q) == 0 for q in range(fixed.q_max + 1))


def test_fixed_subset_requires_an_action():
    piece = dihedral_nerve_piece(NAT, ((1,),), 1)
    stripped = TruncDihedralSet(
        piece.q_max, piece.simplices, piece.face, piece.degeneracy
    )
    with pytest.raises(SpecError):
        fixed_subset(stripped)


def test_fixed_subset_closure_failure_is_a_certificate_error():
    # an involution fixing one endpoint of an edge but not the other
    levels = [["a", "b"], ["e"]]

    def face(q, i, x):
        return "a" if i == 0 else "b"

    def degeneracy(q, i, x):
        return "e"

    # swap the two vertices, fix the edge: the edge's faces leave the fixed set
    def invol(q, x):
        if q == 0:
            return "b" if x == "a" else "a"
        return x

    broken = TruncDihedralSet(
        1, levels, face, degeneracy, invol=invol, flag="levelwise"
    )
    with pytest.raises(CertificateError):
        fixed_subset(broken)


# ---------------------------------------------------------------------------
# power maps
# ---------------------------------------------------------------------------


def test_power_map_weight_one_square():
    witness = power_map_fixed_iso_check(NAT, 1, 2, 2)
    assert witness.ok, witness.detail
    assert witness.degree_counts == (1, 2, 3)
    assert witness.empty_weights == (3,)


def test_power_map_weight_zero():
    witness = power_map_fixed_iso_check(NAT, 0, 3, 2)
    assert witness.ok, witness.detail
    assert witness.degree_counts == (1, 1, 1)
    assert witness.empty_weights == (1, 2)


def test_power_map_degenerate_order_one():
    witness = power_map_fixed_iso_check(NAT, 2, 1, 2)
    assert witness.ok, witness.detail
    assert witness.empty_weights == ()


def test_power_map_rejects_bad_arguments():
    with pytest.raises(SpecError):
        power_map_fixed_iso_check(NAT, -1, 2, 2)
    with pytest.raises(SpecError):
        power_map_fixed_iso_check(NAT, 1, 0, 2)


# ---------------------------------------------------------------------------
# broken structure maps in the comparison checks
# ---------------------------------------------------------------------------


def _shuffle():
    return shuffle_iso_check(NAT, NAT, ((1,), (1,)), 3)


def _sign_splitting():
    return sign_splitting_check(ZSIGMA, 1, 2, 3)


def _power_map():
    return power_map_fixed_iso_check(NAT, 1, 2, 2)


@pytest.mark.parametrize("check, broken_piece, attr, detail", [
    (_shuffle, 1, "_face", "face d_0 incompatible at ((0, 0), (1, 1))"),
    (_shuffle, 1, "_degeneracy", "s_0 incompatible at ((1, 1),)"),
    (_shuffle, 1, "_rotate", "rotation incompatible at ((0, 0), (1, 1))"),
    (_shuffle, 1, "_invol", "reflection incompatible at ((0, 0), (0, 0), (1, 1))"),
    (_sign_splitting, 1, "_face", "face d_0 incompatible at ((-2,), (1,))"),
    (_sign_splitting, 1, "_degeneracy", "s_0 incompatible at ((-1,),)"),
    (_sign_splitting, 1, "_invol", "reflection incompatible at ((-1,),)"),
    (_power_map, 1, "_face", "face d_0 incompatible at ((0,), (1,))"),
    (_power_map, 1, "_degeneracy", "s_0 incompatible at ((1,),)"),
    (_power_map, 2, "_rotate", "rotation incompatible at ((0,), (1,))"),
    (_power_map, 2, "_invol", "reflection incompatible at ((0,), (0,), (1,))"),
])
def test_a_broken_structure_map_names_the_first_incompatibility(
    monkeypatch, check, broken_piece, attr, detail
):
    # the n-th nerve piece a check builds gets one structure map replaced by
    # the identity on its simplex argument
    built = []
    real = dihedral.dihedral_nerve_piece

    def nerve_piece(*args, **kwargs):
        piece = real(*args, **kwargs)
        built.append(piece)
        if len(built) == broken_piece:
            setattr(piece, attr, lambda q, *rest: rest[-1])
        return piece

    monkeypatch.setattr(dihedral, "dihedral_nerve_piece", nerve_piece)
    witness = check()
    assert not witness.ok
    assert witness.detail == detail
