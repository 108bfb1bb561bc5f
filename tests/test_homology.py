"""Tests for chain complexes, homology, fibers and tensor products."""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc.dihedral import circle_model, dihedral_nerve_piece, fixed_subset, sd_sigma
from thrcalc.errors import SpecError
from thrcalc import cubes, fgab, selftest
from thrcalc import homology as homology_module
from thrcalc.cubes import CubeDiagram
from thrcalc.fgab import Mat, group, free_group, kron
from thrcalc.homology import (
    ChainComplex,
    ChainMap,
    MappingFiber,
    _assemble,
    _kron,
    _tensor_matrices,
    connecting_hom,
    fiber_les_report,
    fiber_map,
    homology,
    identity_chain_map,
    induced_hom,
    is_acyclic,
    mapping_fiber,
    normalized_chains,
    tensor_complex,
)
from thrcalc.involutive_algebra import monoid_nat

from conftest import matrices
from helpers import euler_characteristic, full_chains, shift, tensor_chain_map

Z = free_group(1)


def mult_complex(n):
    """Z --n--> Z in degrees 1, 0."""
    return ChainComplex({0: 1, 1: 1}, {1: [[n]]})


# ---------------------------------------------------------------------------
# construction and basic homology
# ---------------------------------------------------------------------------


def test_d_squared_is_checked():
    with pytest.raises(SpecError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})


def test_shape_mismatch_is_checked():
    with pytest.raises(SpecError):
        ChainComplex({0: 2, 1: 1}, {1: [[1]]})


def _read(kind, m):
    """``m`` read as the differential ``Z^2 -> Z^2`` of a complex in
    degrees 1, 0, or as the degree-0 matrix of a chain map on ``Z^2``:
    the matrix read back and the cokernel of ``m`` as homology."""
    if kind == "complex":
        c = ChainComplex({0: 2, 1: 2}, {1: m})
        return c.diff(1), homology(c, 0)
    free = ChainComplex({0: 2}, {})
    f = ChainMap(free, free, {0: m})
    return f.map(0), homology(mapping_fiber(f).complex, -1)


@pytest.mark.parametrize("kind", ["complex", "map"])
def test_one_parser_reads_every_matrix_form(kind):
    m = Mat([[2, 0], [1, 3]])
    expected = (m, group(2, m.data))
    for form in (m, [[2, 0], [1, 3]], [{0: 2}, {0: 1, 1: 3}]):
        assert _read(kind, form) == expected
    # entries go through int in either row form
    assert _read(kind, [{0: 2.0}, {1: 1}]) == _read(kind, [[2.0, 0], [0, 1]])
    assert _read(kind, [{0: 2.0}, {1: 1}])[1] == group(1, [[2]])
    for misfit in ([[1, 0, 0], [0, 1, 0]], [[1, 0]], [{2: 1}, {}]):
        with pytest.raises(SpecError, match="does not fit"):
            _read(kind, misfit)


def test_moore_complex_homology():
    c = mult_complex(2)
    assert homology(c, 0) == group(1, [[2]])
    assert homology(c, 1).is_trivial()
    assert homology(c, 5).is_trivial()


def test_zero_differential_gives_free_homology():
    c = ChainComplex({0: 2, 1: 1}, {})
    assert homology(c, 0) == free_group(2)
    assert homology(c, 1) == Z


def test_euler_characteristic():
    c = ChainComplex({0: 3, 1: 2, 2: 4}, {})
    assert euler_characteristic(c) == 3 - 2 + 4
    assert euler_characteristic(ChainComplex({}, {})) == 0


def test_homology_in_negative_degrees():
    c = ChainComplex({-2: 1, -3: 1}, {-2: [[3]]})
    assert homology(c, -3) == group(1, [[3]])
    assert homology(c, -2).is_trivial()


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


def test_chain_map_must_commute():
    c = mult_complex(2)
    d = mult_complex(4)
    with pytest.raises(SpecError):
        ChainMap(c, d, {0: [[1]], 1: [[1]]})
    ok = ChainMap(c, d, {0: [[2]], 1: [[1]]})
    assert ok.map(0).data == ((2,),)


def test_induced_hom_multiplication():
    c = ChainComplex({0: 1}, {})
    f = ChainMap(c, c, {0: [[3]]})
    h = induced_hom(f, 0)
    assert h.matrix.data == ((3,),)
    assert not h.is_zero_map()


def test_induced_hom_through_quotient():
    # reduction Z -> Z/2 realized on Moore complexes
    c = ChainComplex({0: 1}, {})
    d = mult_complex(2)
    f = ChainMap(c, d, {0: [[1]]})
    h = induced_hom(f, 0)
    assert h.source == Z
    assert h.target == group(1, [[2]])
    assert not h.is_zero_map()


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_moves_homology():
    c = mult_complex(2)
    s = shift(c, 3)
    assert homology(s, 3) == group(1, [[2]])
    assert homology(s, 0).is_trivial()
    assert shift(s, -3).diff(1) == c.diff(1)


# ---------------------------------------------------------------------------
# fibers and cones
# ---------------------------------------------------------------------------


def test_fiber_of_identity_is_acyclic():
    c = mult_complex(2)
    fib = mapping_fiber(identity_chain_map(c))
    assert is_acyclic(fib.complex)


def test_fiber_of_zero_map_splits():
    c = ChainComplex({0: 1}, {})
    d = ChainComplex({0: 1}, {})
    f = ChainMap(c, d, {})
    fib = mapping_fiber(f)
    assert homology(fib.complex, 0) == Z
    assert homology(fib.complex, -1) == Z


def test_fiber_of_map_from_zero_is_a_shift():
    c = mult_complex(3)
    f = ChainMap(ChainComplex({}, {}), c, {})
    fib = mapping_fiber(f)
    s = shift(c, -1)
    assert fib.complex.support == s.support
    for q in s.support:
        assert fib.complex.diff(q) == s.diff(q)


def test_fiber_of_two_points_over_a_circle():
    # two vertices mapping onto the circle's vertex: H_0 of the fiber is Z^2
    circle = ChainComplex({0: 1, 1: 1}, {})
    points = ChainComplex({0: 2}, {})
    f = ChainMap(points, circle, {0: [[1], [1]]})
    fib = mapping_fiber(f)
    assert homology(fib.complex, 0) == free_group(2)
    assert homology(fib.complex, 1).is_trivial()
    assert homology(fib.complex, -1).is_trivial()


def test_fiber_of_multiplication_has_negative_degree_torsion():
    c = ChainComplex({0: 1}, {})
    f = ChainMap(c, c, {0: [[2]]})
    fib = mapping_fiber(f)
    assert homology(fib.complex, 0).is_trivial()
    assert homology(fib.complex, -1) == group(1, [[2]])
    report = fiber_les_report(fib)
    assert report.ok, report.detail


@pytest.mark.parametrize("c, recorded, built, detail", [
    (ChainComplex({0: 1}, {}), 1, 2, "composite is nonzero"),
    (mult_complex(2), 1, 2, "composite is nonzero"),
    (mult_complex(2), 2, 1, "kernel element (-1,) is not in the image"),
])
def test_fiber_of_another_map_fails_its_sequence(c, recorded, built, detail):
    """The fiber of ``built * id`` recorded with ``recorded * id``: its long
    sequence is not exact.  Most joints before the first failure have a
    trivial middle, which ``is_exact`` skips; in the third case the failing
    joint starts at a trivial group, right after a skipped joint."""
    def times(k):
        return ChainMap(c, c, {q: [[k]] for q in c.support})

    fib = MappingFiber(times(recorded), mapping_fiber(times(built)).complex)
    report = fiber_les_report(fib)
    assert (report.ok, report.detail) == (False, detail)


def test_cone_of_iso_is_acyclic_and_detects_non_iso():
    # the cone is the mapping fiber shifted up one degree
    c = mult_complex(2)
    assert is_acyclic(shift(mapping_fiber(identity_chain_map(c)).complex, 1))
    # doubling acts as zero on H_0 = Z/2, so it is not a quasi-iso
    f = ChainMap(c, c, {0: [[2]], 1: [[2]]})
    assert not is_acyclic(shift(mapping_fiber(f).complex, 1))


def test_connecting_hom_realizes_the_boundary():
    c = ChainComplex({0: 1}, {})
    f = ChainMap(c, c, {0: [[2]]})
    fib = mapping_fiber(f)
    delta = connecting_hom(fib, -1)
    assert delta.source == Z
    assert delta.target == group(1, [[2]])
    assert not delta.is_zero_map()


def test_no_chain_equation_is_checked_with_a_dense_product(monkeypatch):
    """Under ``selftest.run_all()``, ``d f = f d``, the cube squares and the
    fiber-map square are checked on sparse rows: none of them multiplies
    two ``Mat``s."""
    real = Mat.__matmul__
    callers = Counter()

    def recording(self, other):
        callers[sys._getframe(1).f_code] += 1
        return real(self, other)

    monkeypatch.setattr(Mat, "__matmul__", recording)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
    monkeypatch.undo()
    assert callers[induced_hom.__code__]  # the recording sees dense products
    checks = {
        ChainMap.__init__.__code__: "ChainMap",
        CubeDiagram.__init__.__code__: "CubeDiagram",
        fiber_map.__code__: "fiber_map",
    }
    assert {checks[code]: n for code, n in callers.items() if code in checks} == {}


def test_fiber_map_functoriality():
    c = mult_complex(2)
    d = mult_complex(4)
    f = identity_chain_map(c)
    g = identity_chain_map(d)
    phi = ChainMap(c, d, {0: [[2]], 1: [[1]]})
    fib_f = mapping_fiber(f)
    fib_g = mapping_fiber(g)
    induced = fiber_map(fib_f, fib_g, phi, phi)
    for q in fib_f.complex.support:
        assert induced.map(q) @ fib_g.proj.map(q) == fib_f.proj.map(q) @ phi.map(q)


def test_fiber_map_rejects_noncommuting_square():
    c = ChainComplex({0: 1}, {})
    f = ChainMap(c, c, {0: [[2]]})
    g = ChainMap(c, c, {0: [[3]]})
    one = identity_chain_map(c)
    with pytest.raises(SpecError):
        fiber_map(mapping_fiber(f), mapping_fiber(g), one, one)


# ---------------------------------------------------------------------------
# long exact sequences on random complexes
# ---------------------------------------------------------------------------


@st.composite
def elementary_complexes(draw):
    pieces = draw(
        st.lists(
            st.tuples(st.integers(-1, 2), st.integers(0, 6)),
            min_size=1,
            max_size=3,
        )
    )
    # the direct sum of Z in one degree or Z --n--> Z in two, one per piece
    basis = {}  # degree -> [(piece, whether it is the piece's top)]
    for i, (degree, n) in enumerate(pieces):
        basis.setdefault(degree, []).append((i, False))
        if n:
            basis.setdefault(degree + 1, []).append((i, True))
    diffs = {
        q: [[pieces[i][1] if top and j == i else 0 for j, _ in basis[q - 1]]
            for i, top in basis[q]]
        for q in basis if q - 1 in basis
    }
    return ChainComplex({q: len(b) for q, b in basis.items()}, diffs)


@settings(max_examples=40, deadline=None)
@given(elementary_complexes(), st.integers(-3, 3))
def test_les_of_scalar_multiple_is_exact(c, k):
    f = ChainMap(
        c, c, {q: Mat.identity(c.rank(q)).scale(k) for q in c.support}
    )
    report = fiber_les_report(mapping_fiber(f))
    assert report.ok, report.detail


def test_each_cycle_basis_is_factored_once(monkeypatch):
    """The fiber sequence reads the presentation of every degree, through
    the relations and the induced and connecting maps; each cycle basis is
    factored once, by the solver memoized beside its presentation."""
    c = ChainComplex({0: 2, 1: 2, 2: 1}, {1: [[2, 0], [0, 0]], 2: [[0, 3]]})
    f = ChainMap(c, c, {q: Mat.identity(c.rank(q)).scale(5) for q in c.support})
    factored = []
    real = fgab.snf

    def recording(m, u_cols=None):
        factored.append(m)
        return real(m, u_cols)

    monkeypatch.setattr(fgab, "snf", recording)
    fib = mapping_fiber(f)
    assert fiber_les_report(fib).ok
    monkeypatch.undo()
    bases = [x._presented[q][1] for x in (c, fib.complex) for q in x._presented]
    counts = [sum(m is basis for m in factored) for basis in bases if basis.rows]
    assert counts and max(counts) == 1 and sum(counts) > 1


@settings(max_examples=25, deadline=None)
@given(elementary_complexes(), elementary_complexes())
def test_les_of_zero_map_is_exact_and_splits(c, d):
    fib = mapping_fiber(ChainMap(c, d, {}))
    report = fiber_les_report(fib)
    assert report.ok, report.detail
    for q in range(fib.complex.lo - 1, fib.complex.hi + 2):
        hc = homology(c, q)
        hd = homology(d, q + 1)
        got = homology(fib.complex, q)
        assert got.free_rank == hc.free_rank + hd.free_rank
        if got.is_finite():
            assert got.order() == hc.order() * hd.order()


def test_mapping_fiber_and_cone_layouts():
    # fib_q = C_q + D_{q+1} and cone_q = fib_{q-1} = C_{q-1} + D_q, the C
    # block first
    c = ChainComplex({0: 1, 1: 1}, {1: [[2]]})
    d = ChainComplex({0: 1, 1: 1}, {1: [[1]]})
    f = ChainMap(c, d, {0: [[3]], 1: [[6]]})
    fib = mapping_fiber(f)
    assert {q: fib.complex.rank(q) for q in fib.complex.support} == {-1: 1, 0: 2, 1: 1}
    assert fib.complex.diff(1) == Mat([[2, 6]])
    assert fib.complex.diff(0) == Mat([[3], [-1]])
    assert fib.proj.map(0) == Mat([[1], [0]])
    assert fib.proj.map(1) == Mat([[1]])
    cone = shift(fib.complex, 1)
    assert {q: cone.rank(q) for q in cone.support} == {0: 1, 1: 2, 2: 1}
    assert cone.diff(2) == Mat([[-2, -6]])
    assert cone.diff(1) == Mat([[-3], [1]])


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def test_tensor_of_circles_is_a_torus():
    circle = ChainComplex({0: 1, 1: 1}, {})
    torus = tensor_complex(circle, circle)
    assert homology(torus, 0) == Z
    assert homology(torus, 1) == free_group(2)
    assert homology(torus, 2) == Z
    assert euler_characteristic(torus) == 0


def test_tensor_torsion_and_tor_terms():
    t = tensor_complex(mult_complex(2), mult_complex(4))
    # H_0 = Z/2 (x) Z/4 = Z/2; H_1 = Tor(Z/2, Z/4) = Z/2; H_2 = 0
    assert homology(t, 0) == group(1, [[2]])
    assert homology(t, 1) == group(1, [[2]])
    assert homology(t, 2).is_trivial()
    # coprime torsion annihilates
    assert homology(tensor_complex(mult_complex(2), mult_complex(3)), 0).is_trivial()


def test_tensor_with_point_is_identity():
    c = mult_complex(5)
    point = ChainComplex({0: 1}, {})
    t = tensor_complex(c, point)
    assert homology(t, 0) == homology(c, 0)
    assert homology(t, 1) == homology(c, 1)


def _tensor_index(c, d, a, b, i, j):
    """Position of ``x_i (x) y_j``, with ``x_i`` in ``C_a`` and ``y_j`` in
    ``D_b``, in degree ``a + b`` of ``c (x) d``: the summands ``(a, b)`` in
    increasing ``a``, and ``i * d.rank(b) + j`` within one."""
    before = sum(c.rank(a2) * d.rank(a + b - a2) for a2 in c.support if a2 < a)
    return before + i * d.rank(b) + j


LEIBNIZ_FACTORS = (
    ChainComplex({0: 2, 1: 2, 2: 1}, {1: [[1, -1], [1, -1]], 2: [[1, -1]]}),
    ChainComplex({-1: 1, 0: 2, 1: 1}, {0: [[1], [2]], 1: [[2, -1]]}),
    mult_complex(3),
)


@pytest.mark.parametrize("c", LEIBNIZ_FACTORS)
@pytest.mark.parametrize("d", LEIBNIZ_FACTORS)
def test_tensor_differential_is_the_leibniz_rule(c, d):
    # d(x (x) y) = dx (x) y + (-1)^a x (x) dy, entry by entry on each basis pair
    t = tensor_complex(c, d)
    for a in c.support:
        for b in d.support:
            for i in range(c.rank(a)):
                for j in range(d.rank(b)):
                    expected = [0] * t.rank(a + b - 1)
                    for i2, x in enumerate(c.diff(a).row(i)):
                        expected[_tensor_index(c, d, a - 1, b, i2, j)] += x
                    for j2, y in enumerate(d.diff(b).row(j)):
                        expected[_tensor_index(c, d, a, b - 1, i, j2)] += (-1) ** a * y
                    row = t.diff(a + b).row(_tensor_index(c, d, a, b, i, j))
                    assert list(row) == expected


def test_tensor_chain_map_is_functorial():
    c = mult_complex(2)
    circle = ChainComplex({0: 1, 1: 1}, {})
    f = ChainMap(c, c, {0: [[2]], 1: [[2]]})
    g = identity_chain_map(circle)
    t = tensor_chain_map(f, g)
    assert t.source.rank(1) == 2
    ff = ChainMap(c, c, {0: [[4]], 1: [[4]]})
    expected = tensor_chain_map(ff, g)
    for q in t.source.support:
        assert t.map(q) @ t.map(q) == expected.map(q)


# ---------------------------------------------------------------------------
# block assembly on sparse rows
# ---------------------------------------------------------------------------


def _sparse(m):
    return [{j: a for j, a in enumerate(row) if a} for row in m.data]


@st.composite
def block_layouts(draw):
    """Row and column layouts, with a random subset of blocks filled, each
    with a random sign."""
    heights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    entries = {}
    for i, h in enumerate(heights):
        for j, w in enumerate(widths):
            if draw(st.booleans()):
                entries[f"r{i}", f"c{j}"] = (draw(st.sampled_from((1, -1))),
                                             draw(matrices(h, w)))
    return heights, widths, entries


@settings(max_examples=100, deadline=None)
@given(block_layouts())
def test_assemble_matches_explicit_concatenation(case):
    heights, widths, entries = case
    rows = [(f"r{i}", h) for i, h in enumerate(heights)]
    cols = [(f"c{j}", w) for j, w in enumerate(widths)]
    expected = []
    for i, h in enumerate(heights):
        parts = []
        for j, w in enumerate(widths):
            sign, m = entries.get((f"r{i}", f"c{j}"), (1, Mat.zeros(h, w)))
            parts.append(m.scale(sign))
        for k in range(h):
            expected.append(sum((part.data[k] for part in parts), ()))
    sparse = {key: (sign, _sparse(m)) for key, (sign, m) in entries.items()}
    assert _assemble(rows, cols, sparse) == _sparse(Mat(expected, cols=sum(widths)))


def test_assemble_rejects_a_block_of_the_wrong_shape():
    layout = [("x", 2), ("y", 1)]
    with pytest.raises(ValueError, match=r"block \('y', 'x'\) does not fit 1 x 2"):
        _assemble(layout, layout, {("y", "x"): (1, _sparse(Mat.identity(2)))})
    with pytest.raises(ValueError, match=r"block \('x', 'y'\) does not fit 2 x 1"):
        _assemble(layout, layout, {("x", "y"): (-1, _sparse(Mat.identity(2)))})


@st.composite
def kron_pairs(draw):
    n, k, p, l = (draw(st.integers(0, 3)) for _ in range(4))
    return draw(matrices(n, k)), draw(matrices(p, l))


@settings(max_examples=100, deadline=None)
@given(kron_pairs())
def test_sparse_kron_matches_kron(pair):
    a, b = pair
    assert _kron(_sparse(a), _sparse(b), b.cols) == _sparse(kron(a, b))
    assert _kron(None, _sparse(b), b.cols) is None


def test_no_chain_builder_reads_a_dense_matrix(monkeypatch):
    """Under ``selftest.run_all()`` and ``p1_report(4)``, every chain
    builder assembles sparse rows: none reads ``diff`` or ``map`` or builds
    a ``Mat``, anywhere below it."""
    builders = {f.__code__ for f in (
        mapping_fiber, fiber_map, tensor_complex, _tensor_matrices,
        cubes.punctured_limit, cubes.comparison, cubes._induced_fiber_map,
        cubes._block_map)}
    real_init, real_of, real_mat = Mat.__init__, Mat._of, homology_module._mat
    seen, under = Counter(), Counter()

    def record(what):
        seen[what] += 1
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code in builders:
                under[what, frame.f_code.co_name] += 1
            frame = frame.f_back

    def init(self, *args, **kwargs):
        record("Mat")
        real_init(self, *args, **kwargs)

    def of(data, cols):
        record("Mat")
        return real_of(data, cols)

    def mat(*args):
        record("diff or map")
        return real_mat(*args)

    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_of", staticmethod(of))
    monkeypatch.setattr(homology_module, "_mat", mat)
    with redirect_stdout(io.StringIO()):
        assert all(outcome.ok for outcome in selftest.run_all())
        assert cubes.p1_report(4).ok
    monkeypatch.undo()
    assert seen["Mat"] and seen["diff or map"]  # the recording sees both
    assert under == {}


@settings(max_examples=25, deadline=None)
@given(elementary_complexes())
def test_euler_characteristic_equals_homology_alternating_sum(c):
    total = 0
    for q in range(c.lo, c.hi + 1):
        sign = -1 if q % 2 else 1
        total += sign * homology(c, q).free_rank
    assert total == euler_characteristic(c)


# ---------------------------------------------------------------------------
# simplicial chains
# ---------------------------------------------------------------------------


def test_circle_model_homology():
    c = circle_model(3)
    chains = normalized_chains(c)
    assert chains.valid_hi is None  # certified complete
    assert homology(chains.complex, 0) == Z
    assert homology(chains.complex, 1) == Z
    assert homology(chains.complex, 2).is_trivial()
    assert homology(chains.complex, 3).is_trivial()


def test_nerve_piece_homology_is_a_circle():
    nat = monoid_nat()
    for j in (1, 2, 3):
        piece = dihedral_nerve_piece(nat, ((j,),), j + 1)
        chains = normalized_chains(piece)
        assert chains.valid_hi is None
        assert homology(chains.complex, 0) == Z
        assert homology(chains.complex, 1) == Z
        assert all(homology(chains.complex, q).is_trivial() for q in range(2, j + 2))


def test_normalized_and_full_chains_agree():
    nat = monoid_nat()
    objects = [circle_model(3), dihedral_nerve_piece(nat, ((2,),), 3)]
    for x in objects:
        norm = normalized_chains(x)
        full = full_chains(x)
        for q in range(0, full.valid_hi + 1):
            assert homology(norm.complex, q) == homology(full.complex, q)


def test_fixed_points_of_subdivided_piece_are_two_points():
    nat = monoid_nat()
    for j in (2, 3):
        piece = dihedral_nerve_piece(nat, ((j,),), 2 * j + 1)
        fixed = fixed_subset(sd_sigma(piece))
        chains = normalized_chains(fixed)
        assert homology(chains.complex, 0) == free_group(2)
        hi = fixed.q_max - 1 if chains.valid_hi is None else chains.valid_hi
        for q in range(1, hi + 1):
            assert homology(chains.complex, q).is_trivial()


def test_truncation_validity_guard():
    nat = monoid_nat()
    piece = dihedral_nerve_piece(nat, ((3,),), 2)  # bound 3 > depth 2
    chains = normalized_chains(piece)
    assert chains.valid_hi == 1
    assert homology(chains.complex, 1) == Z
