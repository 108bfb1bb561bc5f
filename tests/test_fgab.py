import io
import itertools
import random
import re
import sys
from unittest import mock
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thrcalc import cubes, fgab, homology, selftest, thr_pi0
from thrcalc import involutive_algebra as ia
from thrcalc.fgab import (
    Mat, snf, solve_left, group, free_group, hom, identity_hom,
    kernel, is_exact, inverse,
    lift_through, direct_sum,
    vstack, kron,
)
from thrcalc.errors import SpecError
from thrcalc.mackey import fixed_point_mackey

import helpers
from conftest import abelian_groups, matrices
from helpers import DenseGroup, reference_snf, solve_left_is_exact, tensor


def minor_gcd_invariants(m):
    """Independent oracle: d1*...*dk = gcd of all k x k minors."""
    n = min(m.rows, m.cols)
    products = []
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = Mat([[m.data[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        products.append(g)
    # Convert cumulative products to the diagonal entries themselves.
    diag = []
    prev = 1
    for p in products:
        if p == 0:
            diag.append(0)
            continue
        diag.append(p // prev)
        prev = p
    return diag


def random_matrix(rng, max_dim=8, bound=50):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return Mat([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], cols=c)


def check_snf_contract(m):
    s, u, v = snf(m)
    assert (u @ m @ v) == s
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    k = min(m.rows, m.cols)
    diag = [s.data[i][i] for i in range(k)]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.data[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(d >= 0 for d in diag)
    return diag


def test_snf_worked_examples():
    assert check_snf_contract(Mat([[2, 0], [0, 3]])) == [1, 6]
    assert check_snf_contract(Mat([[2, 4], [6, 8]])) == [2, 4]


def test_snf_against_minor_gcd_oracle_500_matrices():
    rng = random.Random(20260818)
    for _ in range(500):
        m = random_matrix(rng, max_dim=5, bound=50)
        diag = check_snf_contract(m)
        assert diag == minor_gcd_invariants(m)


def test_snf_contract_up_to_8x8():
    rng = random.Random(991)
    for _ in range(120):
        check_snf_contract(random_matrix(rng, max_dim=8, bound=50))


def test_snf_edge_shapes():
    check_snf_contract(Mat([], cols=3))
    check_snf_contract(Mat([[0, 0], [0, 0]]))
    check_snf_contract(Mat([[], []], cols=0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_property(rows):
    check_snf_contract(Mat(rows))


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += k * m[j][col]
    return Mat(m, cols=n)


def test_group_invariants_are_presentation_independent():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = rng.randint(0, 4)
        rel = Mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)], cols=n)
        g = group(n, rel)
        # Row operations on relations and a change of generating set both
        # leave the abstract group unchanged.
        u = random_unimodular(rng, r) if r else Mat([], cols=0)
        v = random_unimodular(rng, n)
        rel2 = (u @ rel) if r else rel
        g2 = group(n, rel2 @ v)
        assert g == g2


def test_group_examples():
    assert group(2, [[2, 0], [0, 3]]) == group(1, [[6]])
    assert group(1, [[1]]).is_trivial()
    g = group(3, [[2, 0, 0], [0, 4, 0]])
    assert g.invariant_factors == (2, 4)
    assert g.free_rank == 1


def test_reduce_and_elements():
    g = group(2, [[2, 0], [0, 2]])
    els = g.elements()
    assert len(els) == 4
    assert len({g.reduce(e) for e in els}) == 4
    z6 = group(2, [[2, 0], [0, 3]])
    assert len(z6.elements()) == 6


@st.composite
def group_elements(draw):
    """A group, an element ``x`` and a relation ``r`` of it."""
    g = draw(abelian_groups())
    x = tuple(draw(st.lists(st.integers(-9, 9), min_size=g.n_gens, max_size=g.n_gens)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=g.relations.rows,
                           max_size=g.relations.rows))
    r = tuple(sum(c * row[j] for c, row in zip(coeffs, g.relations.data))
              for j in range(g.n_gens))
    return g, x, r


@settings(max_examples=200, deadline=None)
@given(group_elements())
def test_reduce_is_a_coset_representative(case):
    """``reduce(x)`` differs from ``x`` by a relation, and is the same for
    every element of the coset of ``x``."""
    g, x, r = case
    rep = g.reduce(x)
    diff = tuple(a - b for a, b in zip(rep, x))
    assert solve_left(g.relations, [diff])[0] is not None
    assert g.reduce(tuple(a + b for a, b in zip(x, r))) == rep
    assert g._reduce_rows(Mat([x, rep], cols=g.n_gens)).data == (rep, rep)


def test_hom_well_definedness_enforced():
    z = free_group(1)
    z2 = group(1, [[2]])
    hom(z2, z2, [[1]])
    try:
        hom(z2, z, [[1]])
    except ValueError:
        pass
    else:
        raise AssertionError("ill-defined hom accepted")


def image(f):
    """The image of f, as the kernel of the projection onto the cokernel,
    which is presented on the target's generators."""
    tgt = f.target
    coker = group(tgt.n_gens, vstack(tgt.relations, f.matrix))
    return kernel(hom(tgt, coker, Mat.identity(tgt.n_gens)))[0]


def test_kernel_cokernel_image():
    z = free_group(1)
    f = hom(z, z, [[6]])
    k, incl = kernel(f)
    assert k.is_trivial()
    assert group(1, vstack(z.relations, f.matrix)) == group(1, [[6]])
    assert image(f) == z

    z12 = group(1, [[12]])
    g = hom(z12, z12, [[4]])
    k, incl = kernel(g)
    assert k == group(1, [[4]])
    # inclusion really lands in the kernel
    for row in incl.matrix.data:
        assert z12.is_zero(g.apply(row))
    assert image(g) == group(1, [[3]])
    assert group(1, vstack(z12.relations, g.matrix)) == group(1, [[4]])


def test_kernel_image_random_rank_nullity():
    rng = random.Random(123)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = hom(free_group(n), free_group(m),
                Mat([[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)], cols=m))
        k, _ = kernel(f)
        im = image(f)
        assert k.free_rank + im.free_rank == n
        assert not k.invariant_factors  # subgroup of a free group is free
        assert not im.invariant_factors


def test_is_exact():
    z = free_group(1)
    z2 = group(1, [[2]])
    zero = group(0, Mat([], cols=0))
    seq = [hom(zero, z, Mat.zeros(0, 1)), hom(z, z, [[2]]), hom(z, z2, [[1]]),
           hom(z2, zero, Mat.zeros(1, 0))]
    assert bool(is_exact(seq))
    bad = [hom(zero, z, Mat.zeros(0, 1)), hom(z, z, [[4]]), hom(z, z2, [[1]])]
    assert not bool(is_exact(bad))
    assert "not in the image" in is_exact(bad).detail


def test_is_exact_names_the_first_failing_row():
    zero = group(0, Mat([], cols=0))
    z, z2 = free_group(1), group(1, [[2]])
    three = free_group(3)
    cases = [
        ([hom(three, three, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
          hom(three, zero, Mat.zeros(3, 0))], "kernel element (0, 1, 0) is not in the image"),
        ([hom(three, three, [[1, 0, 0], [0, 1, 0], [0, 0, 3]]),
          hom(three, zero, Mat.zeros(3, 0))], "kernel element (0, 0, 1) is not in the image"),
        # exact at the first two joints, not at the third
        ([hom(zero, z, Mat.zeros(0, 1)), hom(z, z, [[2]]), hom(z, z2, [[1]]),
          hom(z2, z2, [[0]]), hom(z2, zero, Mat.zeros(1, 0))],
         "kernel element (1,) is not in the image"),
    ]
    for seq, detail in cases:
        report = is_exact(seq)
        assert not report.ok
        assert report.detail == detail


def _in_row_lattice(m, y):
    """Independent membership test by determinantal divisors: y is in the
    row lattice of m iff stacking y on m keeps the rank and the gcd of the
    maximal nonzero minors."""
    def rank_and_divisor(diag):
        nonzero = [d for d in diag if d]
        product = 1
        for d in nonzero:
            product *= d
        return len(nonzero), product
    stacked = vstack(m, Mat([y], cols=m.cols))
    return (rank_and_divisor(minor_gcd_invariants(stacked))
            == rank_and_divisor(minor_gcd_invariants(m)))


@st.composite
def lattices_and_rows(draw):
    """A matrix up to 4 x 4 with entries in [-9, 9], and rows of its width,
    some drawn at random and some drawn from its row lattice."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    entries = st.integers(-9, 9)
    m = Mat(draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                          min_size=r, max_size=r)), cols=c)
    ys = []
    for _ in range(draw(st.integers(1, 4))):
        if r and draw(st.booleans()):
            x = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
            ys.append((Mat([x], cols=r) @ m).data[0])
        else:
            ys.append(tuple(draw(st.lists(entries, min_size=c, max_size=c))))
    return m, ys


@settings(max_examples=150, deadline=None)
@given(lattices_and_rows())
def test_batch_solve_left_against_determinantal_divisors(case):
    m, ys = case
    sols = solve_left(m, ys)
    assert len(sols) == len(ys)
    for y, x in zip(ys, sols):
        assert (x is not None) == _in_row_lattice(m, y)
        if x is not None:
            assert (Mat([x], cols=m.rows) @ m).data[0] == tuple(y)
    assert solve_left(m, []) == []


def test_inverse_and_iso():
    z4 = group(1, [[4]])
    f = hom(z4, z4, [[3]])
    g = inverse(f)
    assert g.then(f).equal(identity_hom(z4))
    assert f.then(g).equal(identity_hom(z4))
    assert inverse(hom(z4, z4, [[2]])) is None
    # mixed presentation iso
    a = group(2, [[2, 0], [0, 3]])
    b = group(1, [[6]])
    m = hom(a, b, [[3], [2]])  # (1,0) -> 3, (0,1) -> 2+... pick any iso
    if inverse(m) is None:
        m = hom(a, b, [[3], [4]])
    assert inverse(m) is not None


def test_lift_through():
    z = free_group(1)
    incl = hom(z, z, [[3]])
    lifted = lift_through(incl, hom(z, z, [[12]]))
    assert lifted.matrix.data == ((4,),)
    # Z/2 -> Z/4 by 2 is injective: its kernel lattice (2) is zero in Z/2
    z2, z4 = group(1, [[2]]), group(1, [[4]])
    assert lift_through(hom(z2, z4, [[2]]), hom(z2, z4, [[2]])).equal(identity_hom(z2))
    # Z^2 -> Z by (1, 1) factors the identity but kills (1, -1)
    with pytest.raises(ValueError, match="inclusion is not injective; lift not unique"):
        lift_through(hom(free_group(2), z, [[1], [1]]), identity_hom(z))


def test_direct_sum():
    s, i1, i2, p1, p2 = direct_sum(free_group(1), group(1, [[2]]))
    assert s.free_rank == 1 and s.invariant_factors == (2,)
    assert i1.then(p1).equal(identity_hom(i1.source))
    assert i2.then(p2).equal(identity_hom(i2.source))
    assert i1.then(p2).is_zero_map()


def test_tensor_symmetry_and_values():
    rng = random.Random(5)
    for _ in range(25):
        def rnd_group():
            n = rng.randint(0, 3)
            r = rng.randint(0, 3)
            return group(n, Mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)],
                                cols=n))
        g, h = rnd_group(), rnd_group()
        assert tensor(g, h) == tensor(h, g)
    assert tensor(group(1, [[4]]), group(1, [[6]])) == group(1, [[2]])
    assert tensor(free_group(2), group(1, [[3]])) == group(2, [[3, 0], [0, 3]])


@st.composite
def kron_factors(draw):
    """``a, c`` and ``b, d`` with ``a @ c`` and ``b @ d`` defined."""
    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))
    p, l, r = (draw(st.integers(0, 3)) for _ in range(3))
    return (draw(matrices(n, k)), draw(matrices(p, l)),
            draw(matrices(k, m)), draw(matrices(l, r)))


@settings(max_examples=100, deadline=None)
@given(kron_factors())
def test_kron_mixed_product_rule(factors):
    a, b, c, d = factors
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# ---------------------------------------------------------------------------
# factoring at the width that is read
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(lambda rc: matrices(*rc)))
def test_snf_tracks_the_leading_columns_of_u(m):
    s, u, v = snf(m)
    for k in range(m.rows + 2):
        narrow = snf(m, k)
        assert all(isinstance(x, Mat) for x in narrow)
        s_k, u_k, v_k = narrow
        assert (s_k, v_k) == (s, v)
        width = min(k, m.rows)
        assert (u_k.rows, u_k.cols) == (m.rows, width)
        assert u_k.data == tuple(row[:width] for row in u.data)


# Entries that give unit pivots, entries that give none (so the gcd
# combinations and the divisibility sweep run), and both.
_ENTRY_SETS = ((-1, 0, 1), (0, 2, 4, 6, -3), (-3, -1, 0, 1, 2, 4, 6))


@st.composite
def redundant_matrices(draw):
    """Matrices up to 40 x 8 whose rows are often zero or repeat an earlier
    row, as the relation matrices of the calculator's presentations are."""
    cols = draw(st.integers(0, 8))
    values = st.sampled_from(draw(st.sampled_from(_ENTRY_SETS)))
    fresh = draw(st.lists(st.tuples(*[values] * cols), min_size=1, max_size=8))
    fresh.append((0,) * cols)
    picks = draw(st.lists(st.integers(0, len(fresh) - 1), min_size=len(fresh), max_size=40))
    return Mat([fresh[i] for i in picks], cols=cols)


@settings(max_examples=100, deadline=None)
@given(redundant_matrices())
def test_snf_makes_the_reference_operations(m):
    """``snf`` returns the S, U and V of the brute-force ``reference_snf``
    for every number of tracked columns of U: its shortcuts skip only
    scans and additions that cannot change a matrix."""
    for k in (None, *range(m.rows + 2)):
        assert snf(m, k) == reference_snf(m, k)


# Matrices already in Smith form, and near misses: a diagonal out of
# order, a zero before a positive entry, a negative entry, an entry off the
# diagonal.
_SMITH_FORMS = (
    Mat([[0, 0], [0, 0]]), Mat([], cols=3), Mat([[], [], []], cols=0), Mat.identity(3),
    Mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 0]]),
    Mat([[1, 0], [0, 3], [0, 0], [0, 0]]), Mat([[2, 0, 0, 0], [0, 4, 0, 0]]),
)
_NEAR_MISSES = (
    Mat([[2, 0], [0, 3]]), Mat([[0, 0], [0, 2]]), Mat([[-1, 0], [0, 2]]),
    Mat([[1, 0, 0], [0, 2, 1]]), Mat([[1, 0], [0, 2], [3, 0]]),
)


@pytest.mark.parametrize("m", _SMITH_FORMS + _NEAR_MISSES)
def test_snf_matches_the_reference_on_smith_forms_and_near_misses(m):
    for k in (None, *range(m.rows + 2)):
        assert snf(m, k) == reference_snf(m, k)
    assert (snf(m)[0] == m) == (m in _SMITH_FORMS)


@st.composite
def smith_forms(draw):
    """Matrices up to 5 x 5 in Smith form, often with one defect: an entry
    moved off or onto the diagonal, a negated or a swapped diagonal pair."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    diag, d = [], 1
    for _ in range(draw(st.integers(0, min(r, c)))):
        d *= draw(st.sampled_from((1, 1, 2, 3)))
        diag.append(d)
    data = [[diag[i] if i == j and i < len(diag) else 0 for j in range(c)] for i in range(r)]
    kind = draw(st.integers(0, 3))
    if kind == 1 and r and c:
        data[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(st.integers(-3, 3))
    elif kind == 2 and diag:
        i = draw(st.integers(0, len(diag) - 1))
        data[i][i] = -diag[i]
    elif kind == 3 and min(r, c) >= 2:
        i = draw(st.integers(0, min(r, c) - 2))
        data[i][i], data[i + 1][i + 1] = data[i + 1][i + 1], data[i][i]
    return Mat(data, cols=c)


@settings(max_examples=150, deadline=None)
@given(smith_forms())
def test_snf_returns_smith_forms_as_the_reference_does(m):
    """On a matrix already in Smith form, the early return gives the S, U
    and V that the steps give; on every other matrix the steps run."""
    for k in (None, *range(m.rows + 2)):
        assert snf(m, k) == reference_snf(m, k)
    assert fgab._in_smith_form(m) == (reference_snf(m)[0] == m)


def _trivial_group(draw, n):
    """A trivial group on ``n`` generators: unimodular relations, made
    from the identity by row additions, sometimes with a redundant row."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            k = draw(st.integers(-2, 2))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    if n and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, n - 1))])
    return group(n, rows)


@st.composite
def sequences_through_trivial_groups(draw):
    """Sequences of three or four homs in which some groups are trivial
    presentations with generators.  A map out of a trivial group sends each
    generator into the relation lattice of its target, a map into one is
    any matrix, and a map between two other groups is made well defined by
    adding the images of the source relations to the target relations."""
    entries = st.integers(-2, 2)
    groups = [_trivial_group(draw, draw(st.integers(1, 3))) if draw(st.booleans())
              else draw(abelian_groups())]
    seq = []
    for _ in range(draw(st.integers(3, 4))):
        src = groups[-1]
        n = draw(st.integers(0, 3))
        if draw(st.booleans()):
            tgt = _trivial_group(draw, n)
            mat = draw(matrices(src.n_gens, n))
        elif src.is_trivial():
            tgt = draw(abelian_groups(max_gens=3))
            n = tgt.n_gens
            coeffs = draw(matrices(src.n_gens, tgt.relations.rows))
            mat = coeffs @ tgt.relations
        else:
            mat = Mat(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=src.n_gens, max_size=src.n_gens)), cols=n)
            tgt = group(n, vstack(draw(matrices(draw(st.integers(0, 2)), n)),
                                  src.relations @ mat))
        seq.append(hom(src, tgt, mat))
        groups.append(tgt)
    return seq


@settings(max_examples=150, deadline=None)
@given(sequences_through_trivial_groups())
def test_is_exact_matches_the_solve_left_route_through_trivial_groups(seq):
    got, want = is_exact(seq), solve_left_is_exact(seq)
    assert (got.ok, got.detail) == (want.ok, want.detail)


def test_shortcuts_skip_only_work_whose_outcome_is_known(monkeypatch):
    """Under ``selftest.run_all()``, ``is_exact`` builds no kernel lattice
    at a joint whose middle is trivial, and ``snf`` searches for no pivot
    in a matrix already in Smith form; both kinds of input occur."""
    real_snf, real_is_exact = fgab.snf, fgab.is_exact
    real_kernel, real_least = fgab._kernel_lattice, fgab._least_entry
    seen = Counter()

    def in_smith_form(m):
        return reference_snf(m, 0)[0] == m

    def recording_snf(m, u_cols=None):
        seen["Smith-form inputs"] += in_smith_form(m)
        return real_snf(m, u_cols)

    def recording_is_exact(seq):
        seen["trivial joints"] += sum(a.target.is_trivial() and b.source.is_trivial()
                                      for a, b in zip(seq, seq[1:]))
        return real_is_exact(seq)

    def kernel_lattice(f):
        caller = sys._getframe(1)
        if caller.f_code is real_is_exact.__code__:
            a, b = caller.f_locals["a"], caller.f_locals["b"]
            seen["kernels at trivial joints"] += a.target.is_trivial() and b.source.is_trivial()
        return real_kernel(f)

    def least_entry(a, live):
        seen["pivots in Smith forms"] += in_smith_form(sys._getframe(1).f_locals["m"])
        return real_least(a, live)

    for module in (fgab, selftest):
        monkeypatch.setattr(module, "snf", recording_snf)
    for module in (fgab, homology, thr_pi0):
        monkeypatch.setattr(module, "is_exact", recording_is_exact)
    monkeypatch.setattr(fgab, "_kernel_lattice", kernel_lattice)
    monkeypatch.setattr(fgab, "_least_entry", least_entry)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert seen["kernels at trivial joints"] == seen["pivots in Smith forms"] == 0
    assert seen["trivial joints"] > 0 and seen["Smith-form inputs"] > 0


@pytest.fixture
def combine_calls(monkeypatch):
    """The sparse rows ``fgab._combine`` is called with, in order."""
    real = fgab._combine
    calls = []

    def counting(row, rows):
        calls.append(row)
        return real(row, rows)

    monkeypatch.setattr(fgab, "_combine", counting)
    return calls


def test_a_product_computes_each_distinct_row_once(combine_calls):
    left = Mat([[1, 2], [0, 0], [1, 2], [3, 4], [0, 0], [3, 4]])
    right = Mat([[1, 0, 1], [0, 1, 1]])
    assert left @ right == Mat([[1, 2, 3], [0, 0, 0], [1, 2, 3],
                                [3, 4, 7], [0, 0, 0], [3, 4, 7]])
    assert sorted(combine_calls) == sorted(Mat([[0, 0], [1, 2], [3, 4]]).sparse)


def test_first_nonzero_row_tests_each_distinct_row_once(combine_calls):
    g = group(2, [[2, 4]])  # Z + Z/2, with a basis change V that is not I
    assert not g._plain
    combine_calls.clear()
    rows = Mat([[2, 4], [0, 0], [2, 4], [4, 8], [1, 2], [0, 0], [1, 2]])
    assert g._first_nonzero_row(rows) == 4
    assert sorted(combine_calls) == sorted(Mat([[0, 0], [1, 2], [2, 4], [4, 8]]).sparse)
    # a failing row that repeats an earlier failing row: the first is reported
    assert g._first_nonzero_row(Mat([[0, 3], [2, 4], [0, 3], [0, 1]])) == 0
    assert g._first_nonzero_row(Mat([[2, 4], [0, 0], [2, 4], [-2, -4]])) is None
    # where V is the identity, no row is multiplied by it
    plain = group(2, [[2, 0]])  # Z/2 + Z
    assert plain._plain
    combine_calls.clear()
    assert plain._first_nonzero_row(Mat([[2, 0], [0, 0], [2, 0], [4, 0], [1, 0]])) == 4
    assert combine_calls == []
    for h in (g, plain):
        with pytest.raises(ValueError, match="shape mismatch"):
            h._first_nonzero_row(Mat([[1, 0, 0]]))


@settings(max_examples=100, deadline=None)
@given(abelian_groups(), st.data())
def test_first_nonzero_row_is_the_explicit_product_route(g, data):
    """The index ``_first_nonzero_row`` finds, with its product into Smith
    coordinates skipped in a plain group, is the first row of ``m`` that
    the dense route, through the ``V`` of one ``snf`` of every relation
    row, finds outside the lattice."""
    m = data.draw(matrices(data.draw(st.integers(0, 5)), g.n_gens))
    dense = DenseGroup(g.n_gens, g.relations)
    assert g._first_nonzero_row(m) == dense.first_nonzero_row(m)


@st.composite
def composable_pairs(draw):
    """``[f, g]`` with ``f: A -> B`` and ``g: B -> C`` on small presented
    groups.  The rows of ``f`` are the kernel inclusion of ``g`` (exact),
    combinations of its rows (often inexact), or such combinations plus an
    arbitrary row (often a nonzero composite)."""
    entries = st.integers(-3, 3)
    n_b, n_c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rels_b = draw(matrices(draw(st.integers(0, 2)), n_b))
    g_mat = draw(matrices(n_b, n_c))
    rels_c = vstack(draw(matrices(draw(st.integers(0, 2)), n_c)), rels_b @ g_mat)
    b = group(n_b, rels_b)
    g = hom(b, group(n_c, rels_c), g_mat)
    k, incl = kernel(g)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return [incl, g]
    n_a = draw(st.integers(0, 3))
    rows = []
    for _ in range(n_a):
        coeffs = draw(st.lists(entries, min_size=k.n_gens, max_size=k.n_gens))
        rows.append((Mat([coeffs], cols=k.n_gens) @ incl.matrix).data[0])
    if kind == 2 and n_a:
        rows[draw(st.integers(0, n_a - 1))] = tuple(
            draw(st.lists(entries, min_size=n_b, max_size=n_b)))
    f_mat = Mat(rows, cols=n_b)
    lattice = fgab.row_kernel(vstack(f_mat, rels_b), n_a)
    a_rels = [(Mat([c], cols=lattice.rows) @ lattice).data[0] for c in draw(st.lists(
        st.lists(entries, min_size=lattice.rows, max_size=lattice.rows), max_size=2))]
    return [hom(group(n_a, Mat(a_rels, cols=n_a)), b, f_mat), g]


@settings(max_examples=200, deadline=None)
@given(composable_pairs())
def test_is_exact_matches_the_solve_left_route(seq):
    got, want = is_exact(seq), solve_left_is_exact(seq)
    assert (got.ok, got.detail) == (want.ok, want.detail)


def test_is_exact_matches_the_solve_left_route_on_every_outcome():
    cases = [
        [hom(free_group(1), free_group(1), [[2]]), hom(free_group(1), group(1, [[2]]), [[1]])],
        [hom(free_group(1), free_group(1), [[4]]), hom(free_group(1), group(1, [[2]]), [[1]])],
        [hom(free_group(1), free_group(1), [[1]]), hom(free_group(1), free_group(1), [[1]])],
        [hom(free_group(1), free_group(2), [[1, 0]]), hom(free_group(1), free_group(1), [[1]])],
        # two objects with equal relations meet at the joint
        [hom(free_group(1), free_group(1), [[2]]), hom(free_group(1), group(1, [[2]]), [[1]])],
    ]
    details = []
    for seq in cases:
        got, want = is_exact(seq), solve_left_is_exact(seq)
        assert (got.ok, got.detail) == (want.ok, want.detail)
        details.append(got.detail)
    assert details == ["exact at every joint", "kernel element (-2,) is not in the image",
                       "composite is nonzero", "sequence is not composable",
                       "exact at every joint"]


def test_is_exact_refuses_a_joint_between_two_presentations():
    """Each direction of the joint test reads the middle relations off one
    side, so sides with as many generators and different relations are
    refused.  The first sequence was reported exact, though ``Z/2 -> Z/4``
    is not a joint (the image element ``(2,)`` is not in the kernel); in
    the others only one side of the joint is trivial."""
    zero = group(0, Mat([], cols=0))
    z, z2, z4 = free_group(1), group(1, [[2]]), group(1, [[4]])
    assert solve_left_is_exact([hom(zero, z2, Mat.zeros(0, 1)), hom(z4, z4, [[1]])]).detail \
        == "image element (2,) is not in the kernel"
    cases = [
        [hom(zero, z2, Mat.zeros(0, 1)), hom(z4, z4, [[1]])],
        [hom(z, group(1, [[1]]), [[1]]), hom(z, z2, [[1]])],
        [hom(z, group(1, [[1]]), [[1]]), hom(z, z2, [[2]])],
        [hom(z, z, [[2]]), hom(group(1, [[1]]), z2, [[0]])],
        [hom(z, group(2, [[1, 1], [0, 1]]), [[1, 0]]), hom(free_group(2), z2, [[1], [0]])],
        [hom(z, z, [[1]]), hom(z, z, [[0]]), hom(z2, z2, [[1]])],
    ]
    for seq in cases:
        with pytest.raises(SpecError, match=f"joint {len(seq) - 1}: .* two different"):
            is_exact(seq)


# The callers that keep fewer columns of U than the matrix has rows, with
# how many they keep, read off the caller's locals.
_KEPT = {
    fgab.FgAbGroup.__init__.__code__: lambda local: 0,
    fgab._elementary_divisors.__code__: lambda local: 0,
    fgab.kernel.__code__: lambda local: local["sub"].rows,
    fgab._kernel_lattice.__code__: lambda local: local["f"].source.n_gens,
    fgab.lift_through.__code__: lambda local: local["incl"].source.n_gens,
}
# The callers that keep every coordinate of the solutions or kernel rows
# they ask for, hence every column of U (``edge`` and ``settle`` are local
# functions).
_KEEP_ALL = {
    ("thrcalc.homology", "_presentation"), ("thrcalc.homology", "induced_hom"),
    ("thrcalc.homology", "connecting_hom"), ("thrcalc.fgab", "_back_map"),
    ("thrcalc.cubes", "_unit_lattice"),
    ("thrcalc.cubes", "edge"), ("thrcalc.involutive_algebra", "_weight_data"),
    ("thrcalc.involutive_algebra", "settle"),
}
# The callers that read U as a whole matrix.
_FULL_U = {selftest._snf_sweep.__code__}


def test_no_caller_tracks_more_of_u_than_it_keeps(monkeypatch):
    """Under ``selftest.run_all()``, only the SNF sweep asks for the full
    U; every other call tracks exactly the columns of U that its caller
    keeps."""
    relay = {fgab.row_kernel.__code__, fgab.solve_left.__code__,
             fgab._LeftSolver.solve.__code__, fgab._LeftSolver.kernel.__code__,
             fgab._LeftSolver._factored.__code__}
    real = fgab.snf
    seen = []

    def recording(m, u_cols=None):
        frame = sys._getframe(1)
        while frame.f_code in relay:
            frame = frame.f_back
        seen.append((frame.f_code, frame.f_globals["__name__"], dict(frame.f_locals),
                     m.rows, u_cols))
        return real(m, u_cols)

    for module in (fgab, selftest):
        monkeypatch.setattr(module, "snf", recording)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    # run_all lifts only into free groups; this lift goes into (Z/2)^2
    a = group(2, [[2, 0], [0, 2]])
    fixed_point_mackey(a, hom(a, a, [[0, 1], [1, 0]]))
    # nor does it read a representative through a residue's basis change
    group(2, [[2, 4]]).reduce((1, 1))
    monkeypatch.undo()

    askers, narrowed = set(), set()
    for code, module_name, local, rows, u_cols in seen:
        where = (module_name, code.co_name, rows, u_cols)
        askers.add(code)
        if u_cols is None:
            assert code in _FULL_U, where
        elif code in _KEPT:
            assert u_cols == _KEPT[code](local), where
            if u_cols < rows:
                narrowed.add(code)
        else:
            assert (module_name, code.co_name) in _KEEP_ALL and u_cols == rows, where
    assert askers >= _FULL_U
    assert narrowed == set(_KEPT)


def test_each_lattice_is_factored_once_per_lift_search_and_cube(monkeypatch):
    """Under ``selftest.run_all()``, a lift into ``(Z/2)^2`` and a weight
    fiber of ``Z`` with the sign, no ``snf`` call inside one
    ``lift_through``, one ``_FiberSearch`` (its weight data and every
    settle) or the edges of one ``origin_cube`` gets a ``(matrix, u_cols)``
    that an earlier call there already got.  The unit lattices of the cube
    are left out: the constraints of ``M_{1..n}`` are the identity, which
    is also the basis of the vertex with none, and each is a Smith form
    that ``snf`` returns at once."""
    search = {ia._FiberSearch.plan.__code__, ia._FiberSearch.__call__.__code__}
    edge = next(c for c in cubes.origin_cube.__code__.co_consts
                if getattr(c, "co_name", None) == "edge")
    real = fgab.snf
    held = []  # every scope, kept alive so that no id is reused
    factored, repeats, kinds = {}, [], set()

    def scope(frame):
        while frame is not None:
            code = frame.f_code
            if code is fgab.lift_through.__code__:
                return "lift_through", frame
            if code in search:
                return "_FiberSearch", frame.f_locals["self"]
            if code is edge:
                return "origin_cube", frame.f_locals["bases"]
            frame = frame.f_back
        return None, None

    def recording(m, u_cols=None):
        kind, where = scope(sys._getframe(1))
        if where is not None:
            held.append(where)
            kinds.add(kind)
            seen = factored.setdefault(id(where), set())
            if (m, u_cols) in seen:
                repeats.append((kind, m.rows, m.cols, u_cols))
            seen.add((m, u_cols))
        return real(m, u_cols)

    monkeypatch.setattr(fgab, "snf", recording)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    a = group(2, [[2, 0], [0, 2]])
    fixed_point_mackey(a, hom(a, a, [[0, 1], [1, 0]]))
    assert ia.weight_tuples(ia.monoid_int_sigma(), (1,), 1) == [((1,),)]
    monkeypatch.undo()
    assert kinds == {"lift_through", "_FiberSearch", "origin_cube"}
    assert repeats == []


# ---------------------------------------------------------------------------
# the row kernels against their entry-by-entry forms
# ---------------------------------------------------------------------------

# Entries as the workloads meet them: mostly zero, often +-1, some other
# small values, and a few wider than a machine word.
kernel_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-6, 6),
    st.integers(2 ** 64, 2 ** 70).flatmap(lambda x: st.sampled_from([x, -x])),
)


def kernel_matrices(rows, cols):
    entries = st.lists(kernel_entries, min_size=cols, max_size=cols)
    return st.lists(entries, min_size=rows, max_size=rows).map(
        lambda data: Mat(data, cols=cols))


def assert_sparse_row(row, width):
    """``row`` is a sparse row of a ``width``-column matrix: a tuple of
    ``(col, coeff)`` pairs, columns increasing and in range, entries
    nonzero ``int``s."""
    assert type(row) is tuple and all(type(e) is tuple and len(e) == 2 for e in row)
    cols = [j for j, _ in row]
    assert cols == sorted(set(cols)) and all(type(j) is int and 0 <= j < width for j in cols)
    assert all(type(a) is int and a for _, a in row)


def assert_int_rows(m):
    assert type(m.sparse) is tuple and len(m.sparse) == m.rows
    for row in m.sparse:
        assert_sparse_row(row, m.cols)


@st.composite
def combine_cases(draw):
    width = draw(st.integers(0, 6))
    rows = draw(kernel_matrices(draw(st.integers(0, 6)), width))
    coeffs = tuple(draw(st.lists(kernel_entries, min_size=rows.rows, max_size=rows.rows)))
    return coeffs, rows, width


@settings(max_examples=300, deadline=None)
@given(combine_cases())
def test_combine_is_the_entry_by_entry_sum(case):
    coeffs, rows, width = case
    got = fgab._combine(fgab._nonzeros(coeffs), rows.sparse)
    assert Mat._of((got,), width) == Mat([helpers.generator_combine(coeffs, rows.data, width)],
                                         cols=width)
    assert_sparse_row(got, width)


def test_combine_starts_from_the_stored_row():
    rows = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).sparse

    def sparse(*dense):
        return Mat([dense]).sparse[0]

    assert fgab._combine(((1, 1),), rows) is rows[1]  # rows are immutable tuples
    assert fgab._combine(((1, -1),), rows) == sparse(-4, -5, -6)
    assert fgab._combine(((0, 1), (1, -1), (2, 2)), rows) == sparse(11, 13, 15)
    assert fgab._combine(((0, 1), (1, -2), (2, 1)), rows) == ()
    assert fgab._combine((), ()) == ()


@st.composite
def matrix_pairs(draw):
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return draw(kernel_matrices(r, c)), draw(kernel_matrices(r, c))


@settings(max_examples=200, deadline=None)
@given(matrix_pairs(), st.one_of(kernel_entries, st.booleans(),
                                 st.fractions(-4, 4, max_denominator=3)))
def test_elementwise_ops_are_the_entry_by_entry_forms(pair, k):
    a, b = pair
    for got, want in [(a + b, helpers.generator_add(a, b)),
                      (a - b, helpers.generator_sub(a, b)),
                      (-a, helpers.generator_neg(a)),
                      (a.scale(k), helpers.generator_scale(a, k)),
                      (fgab.kron(a, b), helpers.generator_kron(a, b))]:
        assert got == want and got.cols == want.cols
        assert_int_rows(got)


def test_elementwise_ops_keep_their_shape_errors():
    a, b = Mat([[1, 2]]), Mat([[1, 2, 3]])
    for op in (lambda: a + b, lambda: a - b, lambda: Mat([[1]]) + Mat([[1], [2]])):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            op()


def test_scale_converts_as_the_public_constructor_does():
    m = Mat([[1, -2], [3, 0]])
    for k, want in [(True, ((1, -2), (3, 0))), (False, ((0, 0), (0, 0))),
                    (Fraction(4, 2), ((2, -4), (6, 0))), (Fraction(1, 2), ((0, -1), (1, 0)))]:
        got = m.scale(k)
        assert got.data == want
        assert_int_rows(got)


# ---------------------------------------------------------------------------
# one matrix form: sparse rows, whatever the input rows were
# ---------------------------------------------------------------------------

# A dense shape draws any kernel entry; a sparse one is mostly zeros.
shape_entries = st.sampled_from([
    kernel_entries,
    st.sampled_from([0] * 9 + [1, -1, 3]),
])


@st.composite
def mixed_rows(draw, rows, cols):
    """``rows x cols`` dense integer rows of a dense or a sparse shape, and
    the same rows as ``Mat(...)`` input: each row dense or ``{col:
    coeff}`` (explicit zeros kept in some), its entries ``int``s, or
    ``Fraction``s and ``bool``s that ``int`` converts to them."""
    entries = draw(shape_entries)
    dense = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    given_rows = []
    for row in dense:
        if draw(st.booleans()):
            row = [Fraction(a) if a not in (0, 1) else bool(a) for a in row]
        form = draw(st.sampled_from(["dense", "sparse", "sparse with zeros"]))
        if form == "dense":
            given_rows.append(row)
        else:
            kept = [j for j, a in enumerate(row) if a or form == "sparse with zeros"]
            given_rows.append({j: row[j] for j in draw(st.permutations(kept))})
    return dense, given_rows


@st.composite
def mixed_matrix(draw, rows, cols):
    dense, given_rows = draw(mixed_rows(rows, cols))
    m = Mat(given_rows, cols=cols)
    assert m == Mat(dense, cols=cols) and hash(m) == hash(Mat(dense, cols=cols))
    assert m.data == tuple(map(tuple, dense))
    assert_int_rows(m)
    return m


@st.composite
def mixed_cases(draw):
    r, c, k, p, q = (draw(st.integers(0, 4)) for _ in range(5))
    a, b = draw(mixed_matrix(r, c)), draw(mixed_matrix(r, c))
    return (a, b, draw(mixed_matrix(c, k)), draw(mixed_matrix(p, q)),
            draw(st.lists(kernel_entries, min_size=r, max_size=r)),
            draw(st.one_of(kernel_entries, st.booleans(),
                           st.fractions(-4, 4, max_denominator=3))))


@settings(max_examples=300, deadline=None)
@given(mixed_cases())
def test_one_matrix_form_matches_the_dense_oracles(case):
    """Every ``Mat`` operation, on dense and sparse shapes read from dense
    and ``{col: coeff}`` rows alike, is the dense oracle's, its result in
    the sparse form and equal to (and hashing as) the oracle's matrix."""
    a, b, d, e, x, k = case
    for got, want in [(a @ d, helpers.generator_product(a, d)),
                      (kron(a, e), helpers.generator_kron(a, e)),
                      (kron(e, a), helpers.generator_kron(e, a)),
                      (a + b, helpers.generator_add(a, b)),
                      (a - b, helpers.generator_sub(a, b)),
                      (-a, helpers.generator_neg(a)),
                      (a.scale(k), helpers.generator_scale(a, k)),
                      (vstack(a, b), Mat(a.data + b.data, cols=a.cols))]:
        assert got == want and hash(got) == hash(want)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert_int_rows(got)
    got = fgab._vecmat(x, a)
    assert got == helpers.generator_combine(x, a.data, a.cols)
    assert type(got) is tuple and all(type(v) is int for v in got)
    assert (a == b) == (a.data == b.data)


@pytest.mark.parametrize("rows, cols, message", [
    ([[1, 0, 2]], 2, "cols mismatch"),
    ([{0: 1, 2: 2}], 2, "cols mismatch"),
    ([[1]], 2, "cols mismatch"),
    ([{-1: 1}], 3, "cols mismatch"),
    ([{Fraction(1, 2): 1}], 2, "cols mismatch"),
    ([[1, 0], {2: 1}], None, "cols mismatch"),
    ([[1, 0], [1]], None, "ragged matrix"),
    ([[1, 0], {0: 1}, [1]], None, "ragged matrix"),
    ([], None, "cols required for a matrix with no rows"),
    ([{0: 1}], None, "cols required for sparse rows"),
], ids=["dense-too-wide", "sparse-too-wide", "dense-too-short", "sparse-negative",
        "sparse-not-a-column", "sparse-past-dense", "ragged", "ragged-around-sparse",
        "no-rows", "sparse-rows-only"])
def test_the_public_constructor_rejects_misfits_in_either_row_form(rows, cols, message):
    """A row that does not fit is refused with one message whether it is
    dense or ``{col: coeff}``; the width comes from ``cols`` or from the
    dense rows, and sparse rows alone do not give one."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Mat(rows, cols=cols)


@st.composite
def groups_with_every_part(draw):
    """A group with units, invariant factors and a free part in its Smith
    diagonal, presented in a basis moved by a few elementary operations
    (so that its V is not always the identity) and with a redundant row."""
    units = draw(st.integers(1, 2))
    factors = [2 * draw(st.integers(1, 3))]
    if draw(st.booleans()):
        factors.append(factors[-1] * draw(st.integers(2, 3)))
    free = draw(st.integers(1, 2))
    n = units + len(factors) + free
    diag = [1] * units + factors
    rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(diag)]
    for _ in range(draw(st.integers(0, 3))):  # column operations change the basis
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([1, -1, 2]))
        for row in rows:
            row[j] += c * row[i]
    rows.append([sum(col) for col in zip(*rows)])
    return group(n, rows)


kernel_groups = st.one_of(abelian_groups(max_gens=4, max_rels=4), groups_with_every_part())


def eliminating(every):
    """A context in which a group eliminates the unit pivots of every
    relation matrix (``every``), or only of those at least
    ``_ELIMINATION_CELLS`` large, as outside it."""
    return mock.patch.object(fgab, "_ELIMINATION_CELLS",
                             0 if every else fgab._ELIMINATION_CELLS)


def test_a_group_records_where_its_units_and_free_part_start():
    g = group(5, [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 6, 0, 0], [1, 2, 6, 0, 0]])
    assert g._diag == (1, 2, 6, 0, 0)
    assert (g._units, g._free, g.invariant_factors, g.free_rank) == (1, 3, (2, 6), 2)
    assert g.reduce((5, 3, -1, 7, -8)) == (0, 1, 5, 7, -8)


@settings(max_examples=200, deadline=None)
@given(kernel_groups, st.booleans(), st.data())
def test_membership_is_the_entry_by_entry_form(g, every, data):
    with eliminating(every):
        g = group(g.n_gens, g.relations)
    diag = g._diag
    k = g._units
    assert diag[:k] == (1,) * k and diag[g._free:] == (0,) * g.free_rank
    assert diag[k:g._free] == g.invariant_factors
    m = data.draw(kernel_matrices(data.draw(st.integers(0, 4)), g.n_gens))
    # rows that lie in the relation lattice, so that some tests find no row
    m = vstack(m, g.relations.scale(data.draw(st.integers(-2, 2))))
    assert g._reduce_rows(m) == helpers.generator_reduce_rows(g, m)
    assert_int_rows(g._reduce_rows(m))
    assert g._first_nonzero_row(m) == helpers.generator_first_nonzero_row(g, m)
    for row in m.data:
        got = g.reduce(row)
        assert got == helpers.generator_reduce(g, row)
        assert type(got) is tuple and all(type(x) is int for x in got)


@settings(max_examples=150, deadline=None)
@given(kernel_groups, st.data())
def test_solve_left_reads_the_smith_diagonal_in_slices(g, data):
    """A solution solves, and a row without one is outside the lattice."""
    m = g.relations
    ys = data.draw(kernel_matrices(data.draw(st.integers(1, 4)), g.n_gens))
    ys = vstack(ys, m.scale(data.draw(st.integers(-2, 2))))
    for y, x in zip(ys.data, solve_left(m, ys.data)):
        if x is None:
            assert helpers.generator_first_nonzero_row(g, Mat([y])) == 0
        else:
            assert fgab._vecmat(x, m) == y
            assert type(x) is tuple and all(type(a) is int for a in x)


# ---------------------------------------------------------------------------
# the factored lattice against the dense route
# ---------------------------------------------------------------------------


@st.composite
def presentations(draw):
    """Relations of a group with units, invariant factors and a free part,
    in a basis moved by elementary column operations and a permutation,
    the rows mixed by row operations, with zero and repeated rows among
    them, in any order."""
    diag = [1] * draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        diag.append((diag[-1] if diag else 1) * draw(st.integers(2, 4)))
    n = len(diag) + draw(st.integers(0, 2))
    rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(diag)]
    coeffs = st.sampled_from([1, -1, 2, -2, 3])
    if n >= 2:
        for _ in range(draw(st.integers(0, 4))):  # column operations move the basis
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(coeffs)
            for row in rows:
                row[j] += c * row[i]
        if draw(st.booleans()):
            perm = draw(st.permutations(range(n)))
            rows = [[row[p] for p in perm] for row in rows]
    if len(rows) >= 2:
        for _ in range(draw(st.integers(0, 3))):  # row operations keep the lattice
            i, j = draw(st.permutations(range(len(rows))))[:2]
            c = draw(coeffs)
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    rows += [[0] * n] * draw(st.integers(0, 2))
    rows += [rows[draw(st.integers(0, len(rows) - 1))] for _ in range(draw(st.integers(0, 3)))
             if rows]
    return Mat(draw(st.permutations(rows)), cols=n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(presentations(), abelian_groups(4, 5).map(lambda g: g.relations)),
       st.booleans(), st.data())
def test_the_factored_lattice_is_the_dense_route(rels, every, data):
    """Against one ``snf`` of every relation row, with unit pivots
    eliminated first or not: the same invariants, the same first row
    outside the lattice, representatives that differ from their element
    by a relation and do not depend on the coset's member, the same
    elements, and, where the dense route is plain (its ``V`` the
    identity), the same representatives."""
    n = rels.cols
    with eliminating(every):
        g = group(n, rels)
    dense = DenseGroup(n, rels)
    assert (g.invariant_factors, g.free_rank) == (dense.invariant_factors, dense.free_rank)
    assert g._plain or not dense.plain
    m = data.draw(kernel_matrices(data.draw(st.integers(0, 4)), n))
    lattice = data.draw(matrices(m.rows, rels.rows)) @ rels
    m = vstack(m, lattice)  # rows in the lattice too, so that some tests find no row
    assert g._first_nonzero_row(m) == dense.first_nonzero_row(m)
    reduced = g._reduce_rows(m)
    for x, y, r in zip(m.data, reduced.data, lattice.data + lattice.data):
        assert g.reduce(x) == y
        assert dense.first_nonzero_row(Mat([[a - b for a, b in zip(x, y)]], cols=n)) is None
        assert g.reduce(tuple(a + b for a, b in zip(x, r))) == y
        if dense.plain:
            assert y == dense.reduce(x)
    if g.is_finite() and g.order() <= 100:
        elements = g.elements()
        assert sorted(map(g.reduce, dense.elements())) == elements == sorted(set(elements))
        assert elements == sorted(map(g.reduce, elements))
        if dense.plain:
            assert elements == dense.elements()


@st.composite
def raw_relations(draw):
    """The relation rows of a group with units, invariant factors and a
    free part, with zero rows and repeats of its rows put in anywhere."""
    g = draw(groups_with_every_part())
    rows = list(g.relations.data)
    for _ in range(draw(st.integers(1, 4))):
        extra = draw(st.sampled_from(rows)) if draw(st.booleans()) else (0,) * g.n_gens
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return Mat(rows, cols=g.n_gens)


@settings(max_examples=150, deadline=None)
@given(raw_relations(), st.booleans(), st.data())
def test_relations_are_the_distinct_nonzero_rows(raw, every, data):
    """A group keeps the distinct nonzero rows of the rows it is given, in
    the order they first occur, as its one relation matrix.  Against one
    ``snf`` of the raw rows: the same invariants, the same first row
    outside the lattice, representatives that differ from their element by
    a relation (the same ones where the dense route is plain) and that a
    group on its own relations repeats, and a ``hom`` from it that names
    the first raw row mapping outside the target lattice."""
    n = raw.cols
    with eliminating(every):
        g = group(n, raw)
        again = group(n, g.relations)
    assert g.relations.data == tuple(row for row in dict.fromkeys(raw.data) if any(row))
    dense = DenseGroup(n, raw)
    assert (g.invariant_factors, g.free_rank) == (dense.invariant_factors, dense.free_rank)
    m = vstack(data.draw(kernel_matrices(data.draw(st.integers(0, 4)), n)), raw)
    assert g._first_nonzero_row(m) == dense.first_nonzero_row(m)
    reduced = g._reduce_rows(m)
    assert reduced == again._reduce_rows(m)
    for x, y in zip(m.data, reduced.data):
        assert dense.first_nonzero_row(Mat([[a - b for a, b in zip(x, y)]], cols=n)) is None
        if dense.plain:
            assert y == dense.reduce(x)
    target = data.draw(abelian_groups())
    mat = data.draw(matrices(n, target.n_gens))
    if data.draw(st.booleans()):  # a target in which every relation lands
        target = group(target.n_gens, vstack(target.relations, raw @ mat))
    bad = DenseGroup(target.n_gens, target.relations).first_nonzero_row(raw @ mat)
    if bad is None:
        hom(g, target, mat)  # well defined: no relation maps outside
    else:
        with pytest.raises(ValueError, match=re.escape(f"relation {raw.data[bad]} maps outside")):
            hom(g, target, mat)


def test_a_group_factors_distinct_rows_after_its_unit_pivots(monkeypatch):
    """``FgAbGroup`` hands ``snf`` only its residue: no zero row, no row
    twice and no eliminated generator; a lattice of units alone makes no
    call.  Below ``_ELIMINATION_CELLS`` cells, ``snf`` takes the unit
    pivots itself."""
    real, seen = fgab.snf, []
    monkeypatch.setattr(fgab, "snf", lambda m, u_cols=None: seen.append(m) or real(m, u_cols))
    monkeypatch.setattr(fgab, "_ELIMINATION_CELLS", 0)
    g = group(4, [[2, 1, 0, 0], [0, 0, 0, 0], [4, 1, 0, 0], [0, 0, 6, 2],
                  [2, 1, 0, 0], [0, 0, 6, 2], [0, 0, 4, 0]])
    assert seen == [Mat([[2, 0, 0], [0, 6, 2], [0, 4, 0]])]
    assert (g.invariant_factors, g.free_rank) == ((2, 2, 4), 0)
    seen.clear()
    assert group(3, [[1, 2, 0], [0, 1, -1], [1, 2, 0]]).free_rank == 1
    assert seen == []
    monkeypatch.undo()
    monkeypatch.setattr(fgab, "snf", lambda m, u_cols=None: seen.append(m) or real(m, u_cols))
    assert group(3, [[1, 2, 0], [0, 0, 0], [0, 1, -1], [1, 2, 0]]).free_rank == 1
    assert seen == [Mat([[1, 2, 0], [0, 1, -1]])]
