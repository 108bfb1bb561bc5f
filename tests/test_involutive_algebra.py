"""Tests for rings with involution, affine monoids and weight fibers."""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import cli, selftest
from thrcalc import involutive_algebra as ia
from thrcalc.errors import InfeasibleError, SpecError
from thrcalc.fgab import FgAbGroup, Mat, group, kron
from thrcalc.involutive_algebra import (
    AffineMonoid,
    _unit_vec,
    _weight_data,
    elements_in_ball,
    frobenius,
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
    enumerate_fiber,
    fraction_contains,
    fraction_enumerate_fiber,
    fraction_weight_tuples,
    is_surjective_on_finite,
    loop_frobenius,
    loop_make_ring,
    loop_ring_hom,
    monoid_antidiagonal_halfplane,
    monoid_element,
    monoid_int,
    monoid_nat_power,
    monoid_nat_square_swap,
    product_monoid,
    ring_gaussian_integers,
    ring_mul,
    ring_square,
    spec_message,
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
        assert ring.add.same_element(ring_mul(ring, ring.one, ring.one), ring.one)


def test_f4_is_a_field():
    f4 = ring_F4()
    nonzero = [x for x in f4.elements() if not f4.add.is_zero(x)]
    assert len(nonzero) == 3
    for x in nonzero:
        assert any(
            f4.add.same_element(ring_mul(f4, x, y), f4.one) for y in nonzero
        ), f"{x} has no inverse"


def test_gaussian_conjugation():
    zi = ring_gaussian_integers()
    assert not zi.has_trivial_involution()
    i = (0, 1)
    assert zi.apply_w(i) == (0, -1)
    # norm i * conj(i) = 1
    assert zi.add.same_element(ring_mul(zi, i, zi.apply_w(i)), zi.one)


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
            assert ring2.add.same_element(phi.apply(x), ring_square(ring2, x))


# ---------------------------------------------------------------------------
# stacked axiom checks against the element loops
# ---------------------------------------------------------------------------


def _truncated(k):
    """``R[t]/(t^k)`` on ``1, t, ..., t^(k-1)``, with ``t -> -t``."""
    table = [[_unit_vec(k, i + j) if i + j < k else (0,) * k for j in range(k)]
             for i in range(k)]
    w = [[(-1) ** i * int(i == j) for j in range(k)] for i in range(k)]
    return table, _unit_vec(k, 0), w


# (table, unit, a nontrivial involution) of rings defined over Z, hence
# over every Z/m: truncated polynomials, Z[i] with conjugation, Z[x]/(x^2 -
# x - 1) (F_4 mod 2) with x -> 1 - x, and R x R with the swap
AXIOM_CATALOG = [_truncated(k) for k in (1, 2, 3, 4)] + [
    ([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], (1, 0), [[1, 0], [0, -1]]),
    ([[(1, 0), (0, 1)], [(0, 1), (1, 1)]], (1, 0), [[1, 0], [1, -1]]),
    ([[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1), [[0, 1], [1, 0]]),
]


def _nudge(draw, vector):
    """``vector`` with one coordinate moved by +-1."""
    out = list(vector)
    out[draw(st.integers(0, len(out) - 1))] += draw(st.sampled_from((1, -1)))
    return tuple(out)


@st.composite
def perturbed_rings(draw):
    """A catalog ring over ``Z``, ``Z/2`` or ``Z/4``, in its basis or one
    moved by a signed permutation and one elementary addition, with its
    involution or the identity, and then at most one defect: a table entry
    (on one side or both) or the unit or an involution row moved by +-1,
    two table entries swapped on both sides, or one additive order
    changed."""
    table, unit, w = draw(st.sampled_from(AXIOM_CATALOG))
    n = len(unit)
    modulus = draw(st.sampled_from((0, 2, 4)))
    p = q = Mat.identity(n)  # the basis in catalog coordinates, and back
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        s = [[draw(st.sampled_from((1, -1))) * int(perm[i] == j) for j in range(n)]
             for i in range(n)]
        e = [list(_unit_vec(n, i)) for i in range(n)]
        e_inv = [list(_unit_vec(n, i)) for i in range(n)]
        if n > 1:
            i, j = perm[:2]
            e[i][j] = draw(st.sampled_from((1, -1)))
            e_inv[i][j] = -e[i][j]
        p = Mat(e) @ Mat(s)
        q = Mat([list(col) for col in zip(*s)]) @ Mat(e_inv)
    flat = kron(p, p) @ Mat([v for row in table for v in row]) @ q
    table = [[list(flat.row(i * n + j)) for j in range(n)] for i in range(n)]
    unit = list((Mat([unit]) @ q).row(0))
    w = [list(r) for r in (p @ Mat(w) @ q).data] if draw(st.booleans()) else None
    orders = [modulus] * n
    defect = draw(st.sampled_from(
        ("none", "entry", "one side", "unit", "involution", "swap", "order")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if defect in ("entry", "one side"):
        table[i][j] = list(_nudge(draw, table[i][j]))
        if defect == "entry":
            table[j][i] = table[i][j]
    elif defect == "unit":
        unit = list(_nudge(draw, unit))
    elif defect == "involution":
        w = [list(r) for r in (w or Mat.identity(n).data)]
        w[i] = list(_nudge(draw, w[i]))
    elif defect == "swap":
        k, l = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j], table[k][l] = table[k][l], table[i][j]
        table[j][i], table[l][k] = table[i][j], table[k][l]
    elif defect == "order":
        orders[i] = draw(st.sampled_from((0, 2, 4)))
    add = group(n, [[o * int(j == i) for j in range(n)] for i, o in enumerate(orders) if o])
    return add, table, unit, w


@settings(max_examples=150, deadline=None)
@given(perturbed_rings(), st.data())
def test_axiom_checks_match_the_element_loops(spec, data):
    """``make_ring``, ``ring_hom`` and ``frobenius`` raise the message the
    element loops of ``tests/helpers.py`` raise, or accept where they do;
    ``has_trivial_involution`` agrees with testing each generator."""
    add, table, unit, w = spec
    message = loop_make_ring(add, table, unit, w)
    assert spec_message(make_ring)(add, table, unit, w) == message
    if message is not None:
        return
    ring = make_ring(add, table, unit, w)
    n = ring.n_gens
    assert ring.has_trivial_involution() == all(
        add.same_element(ring.w.apply(_unit_vec(n, i)), _unit_vec(n, i)) for i in range(n))
    for ring2 in (ring, mod2(ring)):
        assert spec_message(frobenius)(ring2) == loop_frobenius(ring2)

    rows = [list(_unit_vec(n, i)) for i in range(n)]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i], rows[j] = rows[j], rows[i]
    else:
        i = data.draw(st.integers(0, n - 1))
        rows[i] = list(_nudge(data.draw, rows[i]))
    plain = make_ring(add, ring.table, ring.one, None)
    target = data.draw(st.sampled_from((ring, plain)))
    assert spec_message(ring_hom)(ring, target, rows) == loop_ring_hom(ring, target, rows)
    assert spec_message(ring_hom)(ring, target, Mat.identity(n)) == loop_ring_hom(
        ring, target, Mat.identity(n))
    modulus = add.relations.row(0)[0] if add.relations.rows else 0
    base = ring_Zmod(modulus) if modulus else ring_Z()
    images = [list(_nudge(data.draw, ring.one)) if data.draw(st.booleans()) else ring.one]
    assert spec_message(ring_hom)(base, ring, images) == loop_ring_hom(base, ring, images)


def test_make_ring_checks_without_element_products(monkeypatch):
    # a ring has no element product of its own (``helpers.ring_mul`` is the
    # loop), and ``make_ring`` compares no two elements one at a time
    calls = []
    original = FgAbGroup.same_element
    monkeypatch.setattr(FgAbGroup, "same_element",
                        lambda *args: calls.append("same_element") or original(*args))
    for table, unit, w in AXIOM_CATALOG:
        n = len(unit)
        for modulus in (0, 2, 4):
            make_ring(group(n, (Mat.identity(n).scale(modulus) if modulus else [])),
                      table, unit, w)
    assert calls == []


def test_involution_matrix_must_be_square():
    add = group(2, [[2, 0], [0, 2]])
    table = [[(1, 0), (0, 1)], [(0, 1), (1, 1)]]
    for w in ([[1, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(SpecError, match="involution matrix is not 2 x 2"):
            make_ring(add, table, (1, 0), w)


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


# Generator sets with their involutions (None for the identity): N, N^2,
# N generated by 2 and 3, Z, Z with sigma, N^2 with the swap, Z x N.
FIBER_CATALOG = [
    ([(1,)], None),
    ([(1, 0), (0, 1)], None),
    ([(2,), (3,)], None),
    ([(1,), (-1,)], None),
    ([(1,), (-1,)], [[-1]]),
    ([(1, 0), (0, 1)], [[0, 1], [1, 0]]),
    ([(1, 0), (-1, 0), (0, 1)], None),
]


@st.composite
def generator_sets(draw):
    """A catalog entry, or up to three generators in ``N^rank`` (rank at
    most 3, entries at most 3) beside up to two unit pairs ``+-e_i``, with
    the identity involution."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIBER_CATALOG))
    rank = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 3)] * rank).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=3))
    for i in draw(st.lists(st.integers(0, rank - 1), unique=True, max_size=2)):
        unit = _unit_vec(rank, i)
        gens += [unit, tuple(-c for c in unit)]
    return gens, None


def _outcome(search, *args):
    """What ``search`` returns, or the message of its ``InfeasibleError``."""
    try:
        return search(*args)
    except InfeasibleError as exc:
        return f"InfeasibleError: {exc}"


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.data())
def test_fiber_search_matches_the_fraction_search(spec, data):
    """The integer search gives what the ``Fraction`` search of
    ``tests/helpers.py`` gives: the sorted ``(vector, certificate)`` pairs
    and the ``limit=1`` certificate of ``enumerate_fiber`` under a small
    weight map, ``weight_tuples`` at several lengths and ``contains`` on
    one monoid (so its memoized searches are read again), the pointedness
    functional, and each ``InfeasibleError`` message."""
    gens, w = spec
    rank = len(gens[0])
    m = data.draw(st.integers(1, 2))
    weight = data.draw(st.sampled_from([
        Mat.identity(rank),
        Mat(data.draw(st.lists(st.lists(st.integers(-1, 2), min_size=m, max_size=m),
                               min_size=rank, max_size=rank)), cols=m),
    ]))
    v = data.draw(st.tuples(*[st.integers(-2, 3)] * weight.cols))
    for limit in (None, 1):
        assert _outcome(enumerate_fiber, gens, weight, v, limit) == _outcome(
            fraction_enumerate_fiber, gens, weight, v, limit)

    try:
        monoid = AffineMonoid(gens, w=w)
    except InfeasibleError as exc:  # a generator in the unit span
        assert f"InfeasibleError: {exc}" == _outcome(
            fraction_enumerate_fiber, gens, Mat.identity(rank), gens[0], 1)
        return
    assert _outcome(pointedness_functional, monoid) == _outcome(
        lambda: _weight_data(monoid.generators, Mat.identity(rank))[3])
    point = st.tuples(*[st.integers(-1, 2)] * rank)
    for length in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        u = data.draw(point)
        assert _outcome(weight_tuples, monoid, u, length) == _outcome(
            fraction_weight_tuples, monoid, u, length)
        assert monoid.contains(u) == fraction_contains(monoid, u)


def test_each_monoid_computes_its_weight_data_once_per_length(monkeypatch):
    """Under ``nerve monoid_nat --weight 6 --homology --fixed-pi0`` and
    ``selftest.run_all()``, ``_weight_data`` runs at most once per monoid
    object and tuple length (the length is the weight map's height over
    the rank); the monoid is the nearest one on the stack."""
    calls = Counter()  # holds the monoids, so their ids are not reused
    real = ia._weight_data

    def recording(gens, weight):
        frame = sys._getframe(1)
        while not any(isinstance(x, AffineMonoid) for x in frame.f_locals.values()):
            frame = frame.f_back
        monoid = next(x for x in frame.f_locals.values() if isinstance(x, AffineMonoid))
        calls[monoid, weight.rows // monoid.rank] += 1
        return real(gens, weight)

    monkeypatch.setattr(ia, "_weight_data", recording)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["nerve", "tests/data/monoid_nat.yaml", "--weight", "6",
                         "--homology", "--fixed-pi0"]) == 0
        assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert {length for _, length in calls} >= {1, 2}  # the recording sees the searches
    assert max(calls.values()) == 1


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
    assert ring_mul(r, (0, 1), (0, 1)) == (1, 1)


def test_ring_description_accepts_an_equal_repeat():
    repeated = dict(F4_DESC, table=F4_DESC["table"] + [["x", "one", "x"], ["x", "x", [1, 1]]])
    assert ring_from_description(repeated).table == ring_from_description(F4_DESC).table
    conflict = dict(F4_DESC, table=F4_DESC["table"] + [["x", "one", "one"]])
    with pytest.raises(SpecError, match=r"conflicting entries for product \(x, one\)"):
        ring_from_description(conflict)


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
