"""Tests for cube diagrams, total fibers and the projective-space reports."""

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import cubes, selftest
from thrcalc import homology as homology_module
from thrcalc import involutive_algebra as ia
from thrcalc.cubes import (
    CubeDiagram,
    PSIGMA_RESTRICTION,
    PSIGMA_UNIT,
    SUB_CIRCLE_MODEL,
    SUB_POSITIVE_CONE,
    SUB_REDUCED_SPLIT,
    SUB_TORUS_FORMALITY,
    _compound_matrices,
    _substituted_weight_cube,
    chart_monoid,
    comparison,
    cospan_square,
    cube_of_map,
    h_map_cofiber_check,
    halfspace_positives,
    origin_cube,
    p1_report,
    pn_report,
    psigma_report,
    punctured_limit,
    smash_sphere_model,
    tensor_cube,
    tfib_recursion_check,
    torus_map,
    torus_model,
    total_fiber,
)
from thrcalc.errors import CertificateError, SpecError
from thrcalc.fgab import Mat, free_group, group
from thrcalc.homology import (
    ChainComplex,
    ChainMap,
    homology,
    homology_table,
    identity_chain_map,
    is_acyclic,
    mapping_fiber,
    tensor_complex,
)
from thrcalc.involutive_algebra import pointedness_functional

from helpers import smash_cube_check
from test_sparse_homology import torsion_complexes

Z = free_group(1)


def mult_complex(n):
    """Z --n--> Z in degrees 1, 0."""
    return ChainComplex({0: 1, 1: 1}, {1: [[n]]})


@st.composite
def zero_diff_maps(draw, max_rank=2):
    """Chain maps between zero-differential complexes in degrees 0 and 1."""
    ranks_src = {q: draw(st.integers(0, max_rank)) for q in (0, 1)}
    ranks_dst = {q: draw(st.integers(0, max_rank)) for q in (0, 1)}
    src = ChainComplex(ranks_src, {})
    dst = ChainComplex(ranks_dst, {})
    mats = {}
    for q in (0, 1):
        r, c = ranks_src[q], ranks_dst[q]
        if r:
            mats[q] = [
                [draw(st.integers(-2, 2)) for _ in range(c)] for _ in range(r)
            ]
    return ChainMap(src, dst, mats)


@st.composite
def scaling_endomaps(draw):
    """Multiplication by m on the complex Z --k--> Z (always a chain map)."""
    k = draw(st.integers(-3, 3))
    m = draw(st.integers(-3, 3))
    c = mult_complex(k)
    return ChainMap(c, c, {0: [[m]], 1: [[m]]})


# ---------------------------------------------------------------------------
# cube construction
# ---------------------------------------------------------------------------


def test_cube_calls_each_rule_once_per_vertex_and_edge():
    c = ChainComplex({0: 1}, {})
    vertices, edges = [], []

    def entry(eps):
        vertices.append(eps)
        return c

    def edge(source, target, eps, j):
        assert source is c and target is c
        edges.append((eps, j))
        return identity_chain_map(c)

    CubeDiagram(3, entry, edge)
    cube = list(product((0, 1), repeat=3))
    assert sorted(vertices) == cube
    assert sorted(edges) == [(eps, j) for eps in cube for j in range(3) if not eps[j]]


def test_cube_rejects_dimension_zero():
    with pytest.raises(SpecError):
        CubeDiagram(0, lambda eps: mult_complex(0), lambda *_: None)


def test_cube_edges_must_point_at_the_stored_entries():
    c = mult_complex(2)
    other = mult_complex(2)  # equal shape, different object
    f = identity_chain_map(other)
    with pytest.raises(SpecError):
        CubeDiagram(1, lambda eps: c, lambda *_: f)


def test_cube_rejects_non_commuting_square():
    c = ChainComplex({0: 1}, {})
    two = ChainMap(c, c, {0: [[2]]})
    three = ChainMap(c, c, {0: [[3]]})
    # 2 then 2 != 2 then 3
    with pytest.raises(SpecError, match="non-commuting"):
        CubeDiagram(2, lambda eps: c, lambda s, t, eps, j: three if eps == (0, 1) else two)


def test_cospan_square_legs_must_share_target():
    a, b = mult_complex(0), mult_complex(0)
    with pytest.raises(SpecError):
        cospan_square(identity_chain_map(a), identity_chain_map(b))


def test_face_extraction_recovers_the_map():
    f = ChainMap(mult_complex(2), mult_complex(2), {0: [[1]], 1: [[1]]})
    g_src = ChainComplex({0: 2}, {})
    g = ChainMap(g_src, g_src, {0: [[0, 1], [1, 0]]})
    cube = tensor_cube([f, g])
    front = cube.face(1, 0)
    assert front.dimension == 1
    for q in (0, 1):
        assert front.edge((0,), 0).map(q) == cube.edge((0, 0), 0).map(q)
    for value in (0, 1):
        end = cube_of_map(f).face(0, value)
        assert end.dimension == 0
        assert end.entry(()) is (f.target if value else f.source)


def test_tensor_cube_needs_a_map():
    with pytest.raises(SpecError):
        tensor_cube([])


# ---------------------------------------------------------------------------
# punctured limits and total fibers
# ---------------------------------------------------------------------------


def test_one_cube_total_fiber_is_the_mapping_fiber():
    for f in (
        ChainMap(mult_complex(2), mult_complex(2), {0: [[3]], 1: [[3]]}),
        ChainMap(ChainComplex({0: 1}, {}), ChainComplex({0: 1}, {}), {0: [[2]]}),
        identity_chain_map(mult_complex(5)),
    ):
        tfib = total_fiber(cube_of_map(f))
        fib = mapping_fiber(f).complex
        lo = min(tfib.lo if tfib.support else 0, fib.lo if fib.support else 0)
        hi = max(tfib.hi if tfib.support else 0, fib.hi if fib.support else 0)
        for q in range(lo - 1, hi + 2):
            assert homology(tfib, q) == homology(fib, q)


def test_total_fiber_sees_torsion():
    c = ChainComplex({0: 1}, {})
    doubling = ChainMap(c, c, {0: [[2]]})
    tfib = total_fiber(cube_of_map(doubling))
    assert homology(tfib, -1) == group(1, [[2]])
    assert homology(tfib, 0).is_trivial()


def test_punctured_limit_of_a_cospan_square():
    # point -> circle <- point; the limit keeps two degree-0 classes.
    point = ChainComplex({0: 1}, {})
    circle = ChainComplex({0: 1, 1: 1}, {})
    into = ChainMap(point, circle, {0: [[1]]})
    square = cospan_square(into, into)
    limit = punctured_limit(square)
    table = homology_table(limit, range(limit.lo - 1, limit.hi + 2))
    assert table == {0: free_group(2)}


def test_punctured_limit_layout():
    # summands C_q, B_q, D_{q+1} in vertex order (0,1), (1,0), (1,1);
    # d(c, b, e) = (dc, db, g(c) - f(b) - de)
    b = ChainComplex({0: 1}, {})
    c = ChainComplex({0: 2}, {})
    d = ChainComplex({0: 1, 1: 1}, {1: [[1]]})
    f = ChainMap(b, d, {0: [[3]]})
    g = ChainMap(c, d, {0: [[1], [2]]})
    limit = punctured_limit(cospan_square(f, g))
    assert {q: limit.rank(q) for q in limit.support} == {-1: 1, 0: 4}
    assert limit.diff(0) == Mat([[1], [2], [-3], [-1]])


def test_comparison_map_sources_the_initial_vertex():
    f = ChainMap(mult_complex(2), mult_complex(2), {0: [[1]], 1: [[1]]})
    cmp_map = comparison(cube_of_map(f))
    assert cmp_map.source is cube_of_map(f).entry((0,)) or (
        cmp_map.source._ranks == f.source._ranks
    )
    assert cmp_map.map(0) == Mat([(1,)], cols=1)


@settings(max_examples=40, deadline=None)
@given(zero_diff_maps())
def test_identity_direction_makes_the_total_fiber_acyclic(f):
    cube = tensor_cube([f, identity_chain_map(ChainComplex({0: 1}, {}))])
    fib = total_fiber(cube)
    assert is_acyclic(fib)


def test_identity_one_cube_is_acyclic():
    fib = total_fiber(cube_of_map(identity_chain_map(mult_complex(4))))
    assert is_acyclic(fib)


# ---------------------------------------------------------------------------
# the fiber-sequence recursion
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(zero_diff_maps(), zero_diff_maps())
def test_recursion_on_random_tensor_squares(f, g):
    report = tfib_recursion_check(tensor_cube([f, g]))
    assert report.ok, report.detail


@settings(max_examples=25, deadline=None)
@given(scaling_endomaps(), scaling_endomaps())
def test_recursion_on_scaling_squares(f, g):
    report = tfib_recursion_check(tensor_cube([f, g]))
    assert report.ok, report.detail


def test_recursion_on_one_cubes():
    f = ChainMap(mult_complex(2), mult_complex(2), {0: [[3]], 1: [[3]]})
    report = tfib_recursion_check(cube_of_map(f))
    assert report.ok


def test_recursion_on_the_chart_cubes():
    assert tfib_recursion_check(origin_cube(2)).ok
    cube = _substituted_weight_cube(2, (1, 1), (1, 2))
    assert tfib_recursion_check(cube).ok


def test_each_square_is_checked_once_and_no_fiber_builds_a_chain_map(monkeypatch):
    """Under ``selftest.run_all()`` each cube square is checked once, where
    its cube is built, since a face reads its cube; and ``mapping_fiber``
    builds no chain map, since a fiber's projection is built when read."""
    squares = []  # holds the recorded maps, so their ids are not reused
    real_commutes = cubes._commutes

    def commutes(a, b, c, d, q):
        squares.append((a, b, c, d, q))
        return real_commutes(a, b, c, d, q)

    builders = Counter()
    real_init = ChainMap.__init__

    def init(self, *args):
        builders[sys._getframe(1).f_code] += 1
        real_init(self, *args)

    monkeypatch.setattr(cubes, "_commutes", commutes)
    monkeypatch.setattr(ChainMap, "__init__", init)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert squares and builders  # the recordings see the checks
    assert sum(n > 1 for n in Counter(squares).values()) == 0
    assert builders[homology_module.mapping_fiber.__code__] == 0


def test_recursion_on_a_constant_cube_with_diagonal_edges():
    c = ChainComplex({0: 2, 1: 2}, {})
    d1 = ChainMap(c, c, {0: [[2, 0], [0, 3]], 1: [[2, 0], [0, 3]]})
    d2 = ChainMap(c, c, {0: [[5, 0], [0, 1]], 1: [[5, 0], [0, 1]]})
    cube = CubeDiagram(2, lambda eps: c, lambda s, t, eps, j: (d1, d2)[j])
    assert tfib_recursion_check(cube).ok


def test_recursion_check_fails_on_a_wrong_group(monkeypatch):
    cube = cube_of_map(ChainMap(mult_complex(2), mult_complex(2), {0: [[3]], 1: [[3]]}))
    assert tfib_recursion_check(cube).ok
    monkeypatch.setattr(cubes, "homology", lambda c, q: group(1, [[7]]))
    report = tfib_recursion_check(cube)
    assert not report.ok
    assert "homology != iterated fiber" in report.detail


def _content(c, q):
    """What ``_presentation(c, q)`` reads of ``c``, written out apart from
    ``homology._presentation_key``: the ranks around ``q`` and the dense
    differentials at ``q`` and ``q + 1``; nothing in a degree of rank 0."""
    if not c.rank(q):
        return ()
    return c.rank(q - 1), c.rank(q), c.rank(q + 1), c.diff(q), c.diff(q + 1)


def test_recursion_check_presents_each_group_once(monkeypatch):
    """Under ``selftest.run_all()``, each ``tfib_recursion_check`` presents
    each degree of each complex at most once, and each content at most
    once: complexes with the same ranks and differentials around a degree
    share one presentation within a check."""
    checks, current = [], [None]
    present = homology_module._presentation
    real_check = cubes.tfib_recursion_check

    def counting(c, q):
        if current[0] is not None:
            current[0].append((c, q))  # holds c, so no other complex takes its id
        return present(c, q)

    def check(cube):
        current[0] = []
        checks.append(current[0])
        try:
            return real_check(cube)
        finally:
            current[0] = None

    monkeypatch.setattr(homology_module, "_presentation", counting)
    monkeypatch.setattr(selftest, "tfib_recursion_check", check)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert len(checks) == 50 and all(checks)
    for built in checks:
        keys = [(id(c), q) for c, q in built]
        assert len(keys) == len(set(keys))
        contents = Counter(_content(c, q) for c, q in built)
        assert max(contents.values()) == 1


def test_each_check_keeps_its_own_presentations(monkeypatch):
    """The shared presentations live for one check: a second check of an
    equal cube presents as many groups as the first.  The second route,
    ``homology(tfib, q)``, reads tfib's elementary divisors and never a
    presentation."""
    counts, fibers = [], []
    present = homology_module._presentation
    real_total = cubes.total_fiber

    def counting(c, q):
        counts[-1] += 1
        return present(c, q)

    def total(q_cube):
        fibers.append(real_total(q_cube))
        return fibers[-1]

    monkeypatch.setattr(homology_module, "_presentation", counting)
    monkeypatch.setattr(cubes, "total_fiber", total)
    for _ in range(2):
        counts.append(0)
        assert tfib_recursion_check(origin_cube(2)).ok
    assert counts[0] == counts[1] > 0
    assert len(fibers) == 2
    assert all(tfib._divisors and not tfib._presented for tfib in fibers)


def _fresh(c):
    """A new complex equal to ``c``, with no memo."""
    return ChainComplex({q: c.rank(q) for q in c.support}, dict(c._rows))


def _scalar(c, k):
    return ChainMap(c, c, {q: [{i: k} for i in range(c.rank(q))] for q in c.support})


@st.composite
def shared_table_cases(draw):
    """A recipe for a fresh cube or mapping fiber on each call: a cube of
    ``selftest.random_small_cubes``, the tensor square or the 1-cube of
    scalar maps on small random complexes with torsion, or the mapping
    fiber of a scalar map on one."""
    kind = draw(st.sampled_from(["zoo", "tensor", "line", "fiber"]))
    if kind == "zoo":
        seed = draw(st.integers(0, 2**16))
        return kind, lambda: selftest.random_small_cubes(random.Random(seed), 1)[0]
    # small factors: see complexes_to_clear in test_sparse_homology.py
    n, size = (2, 3) if kind == "tensor" else (1, 6)
    drawn = [(draw(torsion_complexes(top=2, size=size))[0], draw(st.integers(-3, 3)))
             for _ in range(n)]

    def scalars():
        return [_scalar(_fresh(c), k) for c, k in drawn]

    if kind == "tensor":
        return kind, lambda: tensor_cube(scalars())
    if kind == "line":
        return kind, lambda: cube_of_map(scalars()[0])
    return kind, lambda: mapping_fiber(scalars()[0])


@settings(max_examples=60, deadline=None)
@given(shared_table_cases())
def test_shared_presentations_change_no_verdict(case):
    """``tfib_recursion_check`` and ``fiber_les_report`` give the same
    verdict and detail with the shared table as without it; every complex
    that reads the table gets what a fresh ``_presentation`` builds for it
    (the same relations and cycle basis), and complexes that share a key
    have the same content."""
    kind, build = case
    lookups, tables = [], []
    real_key = homology_module._presentation_key
    real_les = homology_module.fiber_les_report

    def key(c, q):
        lookups.append((c, q, real_key(c, q)))
        return lookups[-1][2]

    def les(fib, shared):
        tables.append(shared)
        return real_les(fib, shared)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology_module, "_presentation_key", key)
        mp.setattr(cubes, "fiber_les_report", les)
        got = les(build(), {}) if kind == "fiber" else tfib_recursion_check(build())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubes, "fiber_les_report", lambda fib, shared: real_les(fib))
        mp.setattr(cubes, "_homology_data",
                   lambda c, q, shared: homology_module._homology_data(c, q))
        want = real_les(build()) if kind == "fiber" else tfib_recursion_check(build())
    assert (got.ok, got.detail) == (want.ok, want.detail)
    assert tables and all(table is tables[0] for table in tables)
    by_key = {}
    for c, q, k in lookups:
        assert c._presented[q] is tables[0][k]
        group_, cycles, _ = c._presented[q]
        fresh_group, fresh_cycles, _ = homology_module._presentation(c, q)
        assert group_.relations == fresh_group.relations
        assert cycles == fresh_cycles
        by_key.setdefault(k, set()).add(_content(c, q))
    assert all(len(contents) == 1 for contents in by_key.values())


# ---------------------------------------------------------------------------
# smash bookkeeping
# ---------------------------------------------------------------------------


def test_smash_single_map_is_a_tautology():
    f = ChainMap(mult_complex(2), mult_complex(2), {0: [[3]], 1: [[3]]})
    assert smash_cube_check([f]).ok


def test_smash_two_scalings_with_torsion():
    c = ChainComplex({0: 1}, {})
    two = ChainMap(c, c, {0: [[2]]})
    three = ChainMap(c, c, {0: [[3]]})
    report = smash_cube_check([two, three])
    assert report.ok
    # fib(x2) (x) fib(x3) carries Z/2 (x) stuff; spot the degree -2 class.
    left = tensor_complex(
        mapping_fiber(two).complex, mapping_fiber(three).complex
    )
    assert homology(left, -2) == group(1, [[1]]) or homology(left, -2).is_trivial()


def test_smash_circle_inclusions():
    point = ChainComplex({0: 1}, {})
    circle = ChainComplex({0: 1, 1: 1}, {})
    into = ChainMap(point, circle, {0: [[1]]})
    assert smash_cube_check([into, into]).ok
    assert smash_cube_check([into, into, into]).ok


def test_smash_sphere_model_ranks():
    assert smash_sphere_model(0)._ranks == {0: 1}
    assert smash_sphere_model(3)._ranks == {3: 1}
    with pytest.raises(SpecError):
        smash_sphere_model(-1)


# ---------------------------------------------------------------------------
# torus models and functoriality
# ---------------------------------------------------------------------------


def test_torus_model_ranks_are_binomial():
    t3 = torus_model(3)
    assert t3._ranks == {0: 1, 1: 3, 2: 3, 3: 1}
    assert torus_model(3, reduced=True)._ranks == {1: 3, 2: 3, 3: 1}
    assert torus_model(0)._ranks == {0: 1}
    with pytest.raises(SpecError):
        torus_model(-1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_torus_map_is_functorial(a, b, c, data):
    draw_int = st.integers(-3, 3)
    m1 = Mat(
        [tuple(data.draw(draw_int) for _ in range(b)) for _ in range(a)], cols=b
    )
    m2 = Mat(
        [tuple(data.draw(draw_int) for _ in range(c)) for _ in range(b)], cols=c
    )
    first, second = torus_map(m1), torus_map(m2)
    direct = torus_map(m1 @ m2)
    for q in range(0, a + 1):
        assert first.map(q) @ second.map(q) == direct.map(q)


def test_torus_map_of_identity_is_identity():
    tm = torus_map(Mat.identity(3))
    for q in range(4):
        r = tm.source.rank(q)
        assert tm.map(q) == Mat.identity(r)


def test_torus_map_top_degree_is_the_determinant():
    tm = torus_map(Mat([(1, 1), (1, 4)], cols=2))
    assert tm.map(2) == Mat([(3,)], cols=1)
    swap = torus_map(Mat([(0, 1), (1, 0)], cols=2))
    assert swap.map(2) == Mat([(-1,)], cols=1)
    assert swap.map(1) == Mat([(0, 1), (1, 0)], cols=2)


def test_torus_map_respects_the_reduced_split():
    # the reduced maps as origin_cube builds them
    a = Mat([(2, 0), (0, 3)], cols=2)
    tm = ChainMap(torus_model(2, reduced=True), torus_model(2, reduced=True),
                  _compound_matrices(a, reduced=True))
    assert 0 not in tm.source._ranks
    assert tm.map(1) == Mat([(2, 0), (0, 3)], cols=2)
    assert tm.map(2) == Mat([(6,)], cols=1)


# ---------------------------------------------------------------------------
# projective line, weight by weight
# ---------------------------------------------------------------------------


def test_p1_report_weights_and_charts():
    report = p1_report(3)
    assert report.ok
    weights = [e.weight for e in report.entries]
    assert weights == sorted(weights)
    assert weights == list(range(-3, 4))
    for e in report.entries:
        if e.weight == 0:
            assert e.substitutions == (SUB_CIRCLE_MODEL,)
            assert e.homology == {0: free_group(2)}
            assert not e.acyclic
        else:
            assert e.substitutions == (SUB_POSITIVE_CONE,)
            assert e.acyclic and e.homology == {}
            assert e.chart == ("x >= 0" if e.weight > 0 else "x <= 0")


@settings(max_examples=4, deadline=None)
@given(st.integers(1, 4))
def test_p1_report_certifies_every_window(window):
    report = p1_report(window)
    assert report.ok
    assert sum(1 for e in report.entries if not e.acyclic) == 1


def test_p1_report_rejects_empty_window():
    with pytest.raises(SpecError):
        p1_report(0)


# ---------------------------------------------------------------------------
# the twisted-line square
# ---------------------------------------------------------------------------


def test_psigma_structure_matrices_are_unimodular_per_degree():
    for degree, unit in PSIGMA_UNIT.items():
        stacked = Mat(
            [tuple(r) for r in PSIGMA_RESTRICTION] + [tuple(r) for r in unit],
            cols=4,
        )
        assert abs(stacked.det()) == 1, f"degree {degree} block is singular"


def test_psigma_report_certifies_the_square():
    report = psigma_report()
    assert report.cartesian
    assert report.mutation_breaks
    assert report.substitutions == (SUB_CIRCLE_MODEL,)
    names = [s.name for s in report.summands]
    assert names == ["unit", "suspension"]
    degrees = [s.input_degree for s in report.summands]
    assert degrees == [0, 1]
    for s in report.summands:
        assert s.homology == {0: free_group(1)}
    assert "not verified equivariantly" in report.summands[1].label


# ---------------------------------------------------------------------------
# the h-map cofiber
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_h_map_cofiber_splits_two_spheres(d):
    report = h_map_cofiber_check(d)
    assert report.ok
    assert report.homology == {d: free_group(2)}


def test_h_map_cofiber_rejects_degree_zero():
    with pytest.raises(SpecError):
        h_map_cofiber_check(0)


# ---------------------------------------------------------------------------
# higher projective spaces: charts and weights
# ---------------------------------------------------------------------------


def test_halfspace_positives_examples():
    assert halfspace_positives(2, (1, 1)) == (1, 2)
    assert halfspace_positives(2, (-1, -1)) == (3,)
    assert halfspace_positives(2, (1, -2)) == (1, 3)
    assert halfspace_positives(3, (1, 0, -2)) == (1, 4)
    assert halfspace_positives(2, (0, 1)) == (2,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_every_nonzero_weight_has_a_positive_halfspace_but_not_all(n, data):
    v = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
    positives = halfspace_positives(n, v)
    if any(v):
        assert 1 <= len(positives) <= n
    else:
        assert positives == ()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_monoids_are_pointed(n):
    for missing in range(1, n + 2):
        monoid = chart_monoid(n, missing)
        lam = pointedness_functional(monoid)
        assert len(lam) == n


def test_chart_monoid_generators_satisfy_the_kept_constraints():
    n = 3
    for missing in range(1, n + 2):
        monoid = chart_monoid(n, missing)
        for g in monoid.generators:
            for j in range(1, n + 1):
                if j != missing:
                    assert g[j - 1] >= 0
            if missing != n + 1:
                assert sum(g) <= 0


@pytest.mark.parametrize(
    "n, v",
    [
        (2, (1, 1)),
        (2, (1, 2)),
        (2, (1, -2)),
        (2, (-2, 1)),
        (3, (1, 1, 1)),
    ],
)
def test_substituted_weight_cubes_are_acyclic(n, v):
    cube = _substituted_weight_cube(n, v, halfspace_positives(n, v))
    fib = total_fiber(cube)
    assert is_acyclic(fib)


@pytest.mark.parametrize("n, v", [(2, (2, 2)), (2, (1, 3)), (3, (1, 1, -3))])
def test_structural_weights_also_pass_a_direct_chain_check(n, v):
    # Above the report's size cutoff these run through the structural rule;
    # recompute them here directly to validate that rule.
    positives = halfspace_positives(n, v)
    assert len(positives) >= n
    cube = _substituted_weight_cube(n, v, positives)
    assert is_acyclic(total_fiber(cube))


@pytest.mark.parametrize(
    "n, v, degrees",
    [(1, (2,), {-2, -1}), (2, (2, 1), {-3, -2, -1, 0}), (2, (1, 1), {-3, -2, -1, 0})],
)
def test_chain_route_detects_a_doubled_cube(n, v, degrees):
    # The chain route of pn_report is acyclic by construction: every edge
    # outside the missing direction is an identity or 0 -> 0.  Doubling
    # those edges keeps every square commuting but leaves 2-torsion, so an
    # acyclic answer is not one the route gives for any cube.
    positives = halfspace_positives(n, v)
    missing = next(m for m in range(1, n + 2) if m not in positives)
    cube = _substituted_weight_cube(n, v, positives)

    def edge(source, target, eps, j):
        f = cube.edge(eps, j)
        if j == missing - 1:
            return f
        return ChainMap(source, target, {q: f.map(q).scale(2) for q in source.support})

    doubled = total_fiber(CubeDiagram(cube.dimension, cube.entry, edge))
    assert is_acyclic(total_fiber(cube))
    table = homology_table(doubled, doubled.support)
    assert set(table) == degrees
    for h in table.values():
        assert h.is_finite() and set(h.invariant_factors) == {2}


@pytest.mark.parametrize("n, window", [(2, 3), (3, 2), (4, 1)])
def test_chain_route_is_acyclic_on_every_chain_eligible_weight(n, window):
    # pn_report computes the total fiber only up to l1 norm 3; here every
    # nonzero weight whose positive directions pick one chart gets it.
    eligible = 0
    for v in product(range(-window, window + 1), repeat=n):
        positives = halfspace_positives(n, v) if any(v) else ()
        if len(positives) < n:
            continue
        eligible += 1
        assert is_acyclic(total_fiber(_substituted_weight_cube(n, v, positives))), v
    assert eligible


def test_substituted_weight_cube_rejects_foreign_weights():
    with pytest.raises(CertificateError):
        _substituted_weight_cube(2, (-1, -1), (1, 2))


@pytest.mark.parametrize("build", [
    lambda: p1_report(3),
    lambda: pn_report(2, 3),
    lambda: selftest.random_small_cubes(random.Random(0), 50),
], ids=["p1_report", "pn_report", "random_small_cubes"])
def test_each_call_builds_one_monoid_per_chart(build, monkeypatch):
    """One call computes ``_weight_data`` at most once per generator set
    and weight map: every weight of a chart reads the same chart monoid."""
    calls = Counter()
    real = ia._weight_data

    def recording(gens, weight):
        calls[tuple(map(tuple, gens)), weight.data] += 1
        return real(gens, weight)

    monkeypatch.setattr(ia, "_weight_data", recording)
    build()
    assert calls  # the recording sees the chart searches
    assert max(calls.values()) == 1


# ---------------------------------------------------------------------------
# the weight-zero torus assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_origin_cube_total_fiber(n):
    fib = total_fiber(origin_cube(n))
    assert homology_table(fib, range(fib.lo - 1, fib.hi + 2)) == {-1: free_group(n)}


def test_origin_cube_entries_are_reduced_tori():
    cube = origin_cube(2)
    assert cube.entry((1, 1, 1))._ranks == {1: 2, 2: 1}
    assert cube.entry((0, 0, 0))._ranks == {}
    assert cube.entry((1, 1, 0))._ranks == {1: 1}


def test_pn_report_n1_matches_the_line_report():
    pn = pn_report(1, 3)
    p1 = p1_report(3)
    assert pn.ok and p1.ok
    zero = [e for e in p1.entries if e.weight == 0][0]
    assert pn.origin.assembled_rank == zero.homology[0].free_rank == 2


@pytest.mark.parametrize("n, window", [(2, 2), (3, 1)])
def test_pn_report_certifies_all_weights(n, window):
    report = pn_report(n, window)
    assert report.ok
    assert len(report.entries) == (2 * window + 1) ** n - 1
    weights = [e.weight for e in report.entries]
    assert weights == sorted(weights)
    for e in report.entries:
        assert e.acyclic
        assert e.method in ("structural", "chain")
        assert e.substitutions == (SUB_POSITIVE_CONE,)
        if e.method == "chain":
            assert e.homology == {}
    assert {e.method for e in report.entries} == {"structural", "chain"}
    origin = report.origin
    assert origin.ok and origin.parity_ok
    assert origin.assembled_rank == n + 1
    assert origin.homology == {-1: free_group(n)}
    assert origin.homology[-1].invariant_factors == ()
    assert origin.substitutions == (SUB_TORUS_FORMALITY, SUB_REDUCED_SPLIT)


def test_pn_report_rejects_bad_parameters():
    with pytest.raises(SpecError):
        pn_report(0, 2)
    with pytest.raises(SpecError):
        pn_report(5, 2)
    with pytest.raises(SpecError):
        pn_report(2, 0)


def test_pn_report_is_deterministic():
    a = pn_report(2, 1)
    b = pn_report(2, 1)
    assert a.entries == b.entries
    assert a.origin.homology == b.origin.homology
