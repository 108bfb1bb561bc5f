"""Tests for rings with involution, affine monoids and weight fibers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc.errors import InfeasibleError, SpecError
from thrcalc.fgab import Mat, group
from thrcalc.involutive_algebra import (
    AffineMonoid,
    elements_in_ball,
    frobenius,
    is_surjective_on_finite,
    make_ring,
    mod2,
    monoid_from_description,
    monoid_int_sigma,
    monoid_nat,
    pointedness_functional,
    ring_F2,
    ring_F4,
    ring_Z,
    ring_Zmod,
    ring_dual_numbers_F2,
    ring_from_description,
    ring_hom,
    weight_tuples,
)

from helpers import (
    MonoidElement,
    elements_of_weight,
    monoid_antidiagonal_halfplane,
    monoid_element,
    monoid_int,
    monoid_nat_power,
    monoid_nat_square_swap,
    product_monoid,
    ring_gaussian_integers,
)

# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------


def test_catalog_constructs():
    for ring in (
        ring_Z(),
        ring_Zmod(2),
        ring_Zmod(4),
        ring_F2(),
        ring_F4(),
        ring_dual_numbers_F2(),
        ring_gaussian_integers(),
    ):
        assert ring.add.same_element(ring.mul(ring.one, ring.one), ring.one)


def test_f4_is_a_field():
    f4 = ring_F4()
    nonzero = [x for x in f4.elements() if not f4.add.is_zero(x)]
    assert len(nonzero) == 3
    for x in nonzero:
        assert any(
            f4.add.same_element(f4.mul(x, y), f4.one) for y in nonzero
        ), f"{x} has no inverse"


def test_gaussian_conjugation():
    zi = ring_gaussian_integers()
    assert not zi.has_trivial_involution()
    i = (0, 1)
    assert zi.apply_w(i) == (0, -1)
    # norm i * conj(i) = 1
    assert zi.add.same_element(zi.mul(i, zi.apply_w(i)), zi.one)


def test_noncommutative_table_rejected():
    add = group(2, [])
    table = [[(1, 0), (0, 1)], [(1, 1), (0, 0)]]
    with pytest.raises(SpecError, match="not commutative"):
        make_ring(add, table, (1, 0), None)


def test_table_must_respect_relations():
    # Z/2 x Z with a*b = b: the relation 2a = 0 forces 2b = 0, which fails.
    add = group(2, [[2, 0]])
    table = [[(1, 0), (0, 1)], [(0, 1), (0, 1)]]
    with pytest.raises(SpecError, match="does not respect the additive relation"):
        make_ring(add, table, (1, 0), None)


def test_nonassociative_table_rejected():
    add = group(3, [])
    e0, e1, e2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    table = [
        [e0, e1, e2],
        [e1, e2, e0],
        [e2, e0, (0, 0, 0)],
    ]
    with pytest.raises(SpecError, match="not associative"):
        make_ring(add, table, e0, None)


def test_non_neutral_unit_rejected():
    add = group(1, [])
    with pytest.raises(SpecError, match="unit is not neutral"):
        make_ring(add, [[(1,)]], (2,), None)


def test_involution_must_square_to_identity():
    add = group(2, [])
    table = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    with pytest.raises(SpecError, match="square to the identity"):
        make_ring(add, table, (1, 0), [[1, 1], [0, 1]])


def test_involution_must_fix_unit():
    add = group(1, [])
    with pytest.raises(SpecError, match="fix the unit"):
        make_ring(add, [[(1,)]], (1,), [[-1]])


def test_involution_must_be_multiplicative():
    # Z x Z with orthogonal idempotents e, f and unit e + f; the additive
    # involution with matrix [[3, 4], [-2, -3]] squares to the identity and
    # fixes the unit but is not multiplicative (it does not fix e = e^2).
    add = group(2, [])
    table = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(SpecError, match="not multiplicative"):
        make_ring(add, table, (1, 1), [[3, 4], [-2, -3]])


def test_multiplication_by_element():
    z4 = ring_Zmod(4)
    double = z4.multiplication_by((2,))
    assert double.apply((1,)) == (2,)
    assert z4.add.is_zero(double.apply((2,)))


# ---------------------------------------------------------------------------
# ring homomorphisms, mod 2, frobenius
# ---------------------------------------------------------------------------


def test_ring_hom_f2_to_f4():
    f = ring_hom(ring_F2(), ring_F4(), [[1, 0]])
    assert f.apply((1,)) == (1, 0)


def test_ring_hom_must_be_unital():
    with pytest.raises(SpecError, match="unit"):
        ring_hom(ring_F2(), ring_F4(), [[0, 1]])


def test_ring_hom_must_be_multiplicative():
    # t -> x is additive and unital on F2[t]/t^2 -> F4 generators but not
    # multiplicative: t^2 = 0 while x^2 = 1 + x.
    with pytest.raises(SpecError, match="multiplicative"):
        ring_hom(ring_dual_numbers_F2(), ring_F4(), [[1, 0], [0, 1]])


def test_ring_hom_must_respect_involution():
    zi = ring_gaussian_integers()
    z_triv = make_ring(group(2, []), zi.table, zi.one, None, names=zi.names)
    with pytest.raises(SpecError, match="involution"):
        ring_hom(zi, z_triv, [[1, 0], [0, 1]])


def test_mod2():
    assert mod2(ring_Z()).add == group(1, [[2]])
    assert mod2(ring_Zmod(4)).add == group(1, [[2]])
    assert mod2(ring_gaussian_integers()).add == group(2, [[2, 0], [0, 2]])
    f2t = mod2(ring_dual_numbers_F2())
    assert f2t.add == ring_dual_numbers_F2().add


def test_frobenius_needs_char_two():
    with pytest.raises(SpecError, match="2 = 0"):
        frobenius(ring_Zmod(4))


def test_frobenius_examples():
    # On F2 squaring is the identity.
    f2 = ring_F2()
    assert frobenius(f2).apply((1,)) == (1,)
    # On F4 it permutes the nonzero elements, hence is surjective.
    assert is_surjective_on_finite(frobenius(ring_F4()))
    # On F2[t]/t^2 it kills t, hence is not surjective.
    phi = frobenius(ring_dual_numbers_F2())
    assert phi.apply((0, 1)) == (0, 0)
    assert not is_surjective_on_finite(phi)


def test_frobenius_agrees_with_squaring_everywhere():
    for ring2 in (mod2(ring_gaussian_integers()), ring_F4(),
                  ring_dual_numbers_F2()):
        phi = frobenius(ring2)
        for x in ring2.elements():
            assert ring2.add.same_element(phi.apply(x), ring2.square(x))


# ---------------------------------------------------------------------------
# affine monoids
# ---------------------------------------------------------------------------


def test_monoid_involution_closure_required():
    with pytest.raises(SpecError, match="not in the monoid"):
        AffineMonoid([(1,)], w=[[-1]])


def test_monoid_involution_order_two_required():
    with pytest.raises(SpecError, match="square"):
        AffineMonoid([(1, 0), (0, 1)], w=[[0, 1], [0, 1]])


def test_membership_certificates():
    m3 = monoid_antidiagonal_halfplane()
    el = monoid_element(m3, (-3, 1))
    acc = [0, 0]
    for c, g in zip(el.certificate, m3.generators):
        acc[0] += c * g[0]
        acc[1] += c * g[1]
    assert tuple(acc) == (-3, 1)
    assert m3.contains((1, 0)) is None
    assert m3.contains((1, -1)) is not None


def test_monoid_element_rejects_negative_certificate():
    with pytest.raises(SpecError, match="negative"):
        MonoidElement((1,), (-1,))


# ---------------------------------------------------------------------------
# weight fibers
# ---------------------------------------------------------------------------


def test_halfplane_fiber_is_a_single_element():
    m3 = monoid_antidiagonal_halfplane()
    els = elements_of_weight(m3, None, (-1, 0))
    assert [e.vector for e in els] == [(-1, 0)]


def test_zero_weight_on_units_is_rejected():
    with pytest.raises(InfeasibleError, match="infinite"):
        elements_of_weight(monoid_int(), [[0]], (0,))


def test_identity_weight_on_int_is_a_singleton():
    els = elements_of_weight(monoid_int(), None, (7,))
    assert [e.vector for e in els] == [(7,)]


def test_sum_weight_on_nat_square():
    n2 = monoid_nat_power(2)
    els = elements_of_weight(n2, [[1], [1]], (3,))
    assert [e.vector for e in els] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert not elements_of_weight(n2, [[1], [1]], (-1,))


def test_weight_killing_a_pointed_generator_is_rejected():
    n2 = monoid_nat_power(2)
    with pytest.raises(InfeasibleError):
        elements_of_weight(n2, [[1], [0]], (2,))


def test_fiber_certificates_reevaluate():
    # The weight (x1, x2) -> (x1 + x2, x2) is injective, so the fiber over
    # (-2, 1) is the single point (-3, 1); its certificate must re-evaluate.
    m3 = monoid_antidiagonal_halfplane()
    els = elements_of_weight(m3, [[1, 0], [1, 1]], (-2, 1))
    assert [e.vector for e in els] == [(-3, 1)]
    for e in els:
        acc = [0, 0]
        for c, g in zip(e.certificate, m3.generators):
            acc[0] += c * g[0]
            acc[1] += c * g[1]
        assert tuple(acc) == e.vector


def test_weight_zero_on_a_unit_is_rejected():
    # (x1, x2) -> x1 + x2 kills the unit pair (1, -1), (-1, 1) of the
    # antidiagonal halfplane, so every nonempty fiber is infinite.
    m3 = monoid_antidiagonal_halfplane()
    with pytest.raises(InfeasibleError, match="unit combination"):
        elements_of_weight(m3, [[1], [1]], (-2,))


def test_weight_tuples():
    tuples = weight_tuples(monoid_nat(), (2,), 3)
    assert len(tuples) == 6
    assert all(sum(x[0] for x in t) == 2 for t in tuples)
    assert tuples == sorted(tuples)
    assert weight_tuples(monoid_nat(), (0,), 0) == [()]
    assert weight_tuples(monoid_nat(), (1,), 0) == []


def test_weight_tuples_with_units_can_be_infinite():
    # Tuple weights are summed across slots, so pairs over Z with total
    # weight 0 form an infinite family (a, -a) and must be rejected.
    with pytest.raises(InfeasibleError):
        weight_tuples(monoid_int(), (0,), 2)


def test_pointedness_functional_on_nat_powers():
    for k in (1, 2, 4):
        lam = pointedness_functional(monoid_nat_power(k))
        for g in monoid_nat_power(k).generators:
            val = sum(a * b for a, b in zip(lam, g))
            assert val >= 1


def test_elements_in_ball_int():
    assert elements_in_ball(monoid_int(), 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert elements_in_ball(monoid_nat(), 2) == [(0,), (1,), (2,)]


def test_product_monoid():
    pm = product_monoid(monoid_int_sigma(), 2)
    assert pm.rank == 2
    assert pm.apply_w((3, -4)) == (-3, 4)
    assert pm.contains((5, -5)) is not None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_w_is_the_row_vector_times_the_involution(data):
    monoid = data.draw(st.sampled_from([
        monoid_int_sigma(),
        monoid_nat_square_swap(),
        product_monoid(monoid_nat_square_swap(), 2),
        AffineMonoid([(1, 0), (2, 1), (4, -1)], w=[[1, 0], [2, -1]]),
    ]))
    v = tuple(data.draw(st.lists(
        st.integers(-50, 50), min_size=monoid.rank, max_size=monoid.rank
    )))
    assert monoid.apply_w(v) == (Mat.row_vector(v) @ monoid.w).row(0)
    with pytest.raises(ValueError):
        monoid.apply_w(v + (0,))


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------

F4_DESC = {
    "generators": ["one", "x"],
    "orders": [2, 2],
    "unit": "one",
    "table": [["one", "one", "one"], ["one", "x", "x"], ["x", "x", [1, 1]]],
}


def test_ring_from_description_roundtrip():
    r = ring_from_description(F4_DESC)
    assert r.add == ring_F4().add
    assert r.mul((0, 1), (0, 1)) == (1, 1)


def test_ring_description_errors():
    with pytest.raises(SpecError, match="missing key"):
        ring_from_description({"generators": ["one"]})
    bad = dict(F4_DESC, table=[["one", "one", "one"], ["one", "x", "x"]])
    with pytest.raises(SpecError, match="missing product"):
        ring_from_description(bad)
    bad = dict(F4_DESC, orders=[2, -1])
    with pytest.raises(SpecError, match="orders"):
        ring_from_description(bad)
    bad = dict(F4_DESC, unit="y")
    with pytest.raises(SpecError, match="unknown generator"):
        ring_from_description(bad)
    # YAML reads ``false`` as a bool, which Python counts as the int 0
    bad = dict(F4_DESC, table=[[False, "one", "one"]] + F4_DESC["table"][1:])
    with pytest.raises(SpecError, match="bad generator reference False"):
        ring_from_description(bad)
    with pytest.raises(SpecError, match="mapping"):
        ring_from_description([1, 2, 3])


def test_monoid_from_description():
    m = monoid_from_description(
        {"generators": [[1], [-1]], "involution": [[-1]]}
    )
    assert m.apply_w((2,)) == (-2,)
    with pytest.raises(SpecError, match="generator"):
        monoid_from_description({})


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

CATALOG = [
    monoid_nat(),
    monoid_int(),
    monoid_int_sigma(),
    monoid_nat_power(2),
    monoid_nat_square_swap(),
    monoid_antidiagonal_halfplane(),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(CATALOG))),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
)
def test_membership_matches_identity_fiber(idx, point):
    monoid = CATALOG[idx]
    v = tuple(point[: monoid.rank]) + (0,) * max(0, monoid.rank - 2)
    cert = monoid.contains(v)
    fiber = elements_of_weight(monoid, None, v)
    if cert is None:
        assert fiber == []
    else:
        assert [e.vector for e in fiber] == [v]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(len(CATALOG))),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
)
def test_monoid_closed_under_addition(idx, p, q):
    monoid = CATALOG[idx]
    a = tuple(p[: monoid.rank]) + (0,) * max(0, monoid.rank - 2)
    b = tuple(q[: monoid.rank]) + (0,) * max(0, monoid.rank - 2)
    if monoid.contains(a) is not None and monoid.contains(b) is not None:
        s = tuple(x + y for x, y in zip(a, b))
        assert monoid.contains(s) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
def test_weight_tuple_count_on_nat(total, length):
    from math import comb

    tuples = weight_tuples(monoid_nat(), (total,), length)
    assert len(tuples) == comb(total + length - 1, length - 1)
