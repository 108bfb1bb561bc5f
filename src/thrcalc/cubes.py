"""Cube diagrams of chain complexes and the projective-space reports.

A cube diagram is a strictly commuting functor from the poset ``{0,1}**n``
to chain complexes.  The limit of the punctured cube (everything except the
initial vertex) is computed as the total complex of the cubical cochain
model, and the total fiber is the mapping fiber of the comparison from the
initial vertex into that limit.

On top of this the module assembles the chain-level projective-space
computations: the weight-by-weight descent squares for the projective line
(`p1_report`), the four-term square certifying the twisted projective line
(`psigma_report`), and the chart-cube analysis for higher projective spaces
(`pn_report`).  Infinite simplicial objects are never enumerated; every
replacement of one by a finite model is recorded by name in the report
entry that used it (the ``substitutions`` field).
"""

from itertools import combinations, product
from math import comb
from types import SimpleNamespace
from typing import NamedTuple

from .dihedral import circle_model, dihedral_nerve_piece, pointedness_bound
from .errors import CertificateError, SpecError
from .fgab import Mat, _LeftSolver, free_group, row_kernel
from .homology import (
    ChainComplex,
    ChainMap,
    _assemble,
    _commutes,
    _homology_data,
    _identity_rows,
    _kron,
    _stored,
    _tensor_matrices,
    fiber_les_report,
    fiber_map,
    homology,
    homology_table,
    identity_chain_map,
    is_acyclic,
    mapping_fiber,
    normalized_chains,
    tensor_complex,
)
from .involutive_algebra import AffineMonoid, _unit_vec

# names for the logged finite-model replacements
SUB_POSITIVE_CONE = "positive_cone"
SUB_CIRCLE_MODEL = "circle_model"
SUB_TORUS_FORMALITY = "torus_formality"
SUB_REDUCED_SPLIT = "reduced_basepoint_split"


# ---------------------------------------------------------------------------
# cube diagrams
# ---------------------------------------------------------------------------


def _vertices(n):
    return tuple(product((0, 1), repeat=n))


def _bump(eps, j):
    out = list(eps)
    out[j] = 1
    return tuple(out)


class CubeDiagram:
    """A strictly commuting ``{0,1}**n`` diagram of chain complexes, built
    from two rules.

    ``entry(eps)`` gives the complex at the vertex ``eps``; ``edge(source,
    target, eps, j)``, for ``eps[j] == 0``, gives the chain map from the
    entry at ``eps`` to the entry at the vertex with coordinate ``j``
    flipped to 1, and is handed those two stored entries.  Each rule is
    called once per vertex or edge, and all squares are checked to commute
    on the nose at construction, degree by degree, as equal products of
    the edge matrices on their sparse rows.  That is the only check of a
    square: a face is a view that reads the stored entries and edges.
    """

    __slots__ = ("dimension", "_entries", "_edges")

    def __init__(self, dimension, entry, edge):
        if dimension < 1:
            raise SpecError("cube dimension must be at least 1")
        self.dimension = dimension
        self._entries = {eps: entry(eps) for eps in _vertices(dimension)}
        self._edges = {}
        for eps in _vertices(dimension):
            for j in range(dimension):
                if eps[j]:
                    continue
                source, target = self._entries[eps], self._entries[_bump(eps, j)]
                f = self._edges[eps, j] = edge(source, target, eps, j)
                if f.source is not source or f.target is not target:
                    raise SpecError(
                        f"edge at {eps} direction {j} does not match its entries"
                    )
        for eps in _vertices(dimension):
            for i in range(dimension):
                for j in range(i + 1, dimension):
                    if eps[i] or eps[j]:
                        continue
                    a, b = self.edge(eps, i), self.edge(_bump(eps, i), j)
                    c, d = self.edge(eps, j), self.edge(_bump(eps, j), i)
                    for q in set(self._entries[eps].support):
                        if not _commutes(a, b, c, d, q):
                            raise SpecError(
                                f"non-commuting square at {eps} in directions "
                                f"{i}, {j} (degree {q})"
                            )

    def entry(self, eps):
        return self._entries[tuple(eps)]

    def edge(self, eps, j):
        return self._edges[(tuple(eps), j)]

    def face(self, direction, value):
        """The (n-1)-cube obtained by freezing one coordinate, as a view
        whose ``entry`` and ``edge`` read this cube's through ``embed``, so
        no square is checked again; a face of a 1-cube is the 0-cube of
        the complex at that end."""

        def embed(eps):
            return eps[:direction] + (value,) + eps[direction:]

        return SimpleNamespace(
            dimension=self.dimension - 1,
            embed=embed,
            entry=lambda eps: self.entry(embed(eps)),
            edge=lambda eps, j: self.edge(embed(eps), j + (j >= direction)),
        )

    def __repr__(self):
        return f"CubeDiagram(dimension={self.dimension})"


def cube_of_map(f):
    """The 1-cube of a single chain map."""
    return CubeDiagram(1, lambda eps: f.target if eps[0] else f.source, lambda *_: f)


def cospan_square(f, g):
    """The square with initial entry 0 over the cospan ``f: B -> D <- C :g``."""
    corners = {(0, 0): ChainComplex({}, {}), (1, 0): f.source, (0, 1): g.source, (1, 1): f.target}
    if g.target is not f.target:
        raise SpecError("cospan legs must share their target")
    legs = {(1, 0): f, (0, 1): g}  # keyed by source vertex; the rest leave 0

    def edge(source, target, eps, j):
        return legs[eps] if eps in legs else ChainMap(source, target, {})

    return CubeDiagram(2, corners.__getitem__, edge)


def tensor_cube(maps):
    """The cube ``X_{a_1,1} (x) ... (x) X_{a_n,n}`` of elementary tensors."""
    maps = tuple(maps)
    if not maps:
        raise SpecError("tensor cube needs at least one map")
    cube = cube_of_map(maps[0])
    for f in maps[1:]:
        cube = _tensor_with(cube, f)
    return cube


def _tensor_with(cube, f):
    """The cube ``cube (x) f``, one dimension up: the last coordinate picks
    the source or target of ``f``."""
    n = cube.dimension
    sides = (f.source, f.target)
    side_ids = tuple(identity_chain_map(side) for side in sides)

    def edge(source, target, eps, j):
        if j == n:
            mats = _tensor_matrices(identity_chain_map(cube.entry(eps[:n])), f)
        else:
            mats = _tensor_matrices(cube.edge(eps[:n], j), side_ids[eps[n]])
        return ChainMap(source, target, mats)

    return CubeDiagram(
        n + 1, lambda eps: tensor_complex(cube.entry(eps[:n]), sides[eps[n]]), edge
    )


# ---------------------------------------------------------------------------
# punctured limits and total fibers
# ---------------------------------------------------------------------------


def _limit_summands(q_cube, q):
    """Summands of degree ``q`` of the punctured limit: the vertices
    ``eps != 0`` in lexicographic order, each with the rank of its entry in
    degree ``q + |eps| - 1``; vertices of rank zero are left out."""
    out = []
    for eps in _vertices(q_cube.dimension)[1:]:
        r = q_cube.entry(eps).rank(q + sum(eps) - 1)
        if r:
            out.append((eps, r))
    return out


def punctured_limit(q_cube):
    """Total complex of the cube's cochain model away from the initial vertex.

    The component at a vertex ``eps`` sits with a shift: degree ``q`` of the
    limit collects degree ``q + |eps| - 1`` of the entry there.
    """
    degrees = sorted({
        p - sum(eps) + 1
        for eps in _vertices(q_cube.dimension)[1:]
        for p in q_cube.entry(eps).support
    })
    summands = {q: _limit_summands(q_cube, q) for q in degrees}
    diffs = {}
    for q, layout in summands.items():
        below = summands.get(q - 1)
        if below is None:
            continue
        keys = {eps for eps, _ in below}
        entries = {}
        for eps, _ in layout:
            p = q + sum(eps) - 1
            if eps in keys:
                entries[eps, eps] = (-1 if (sum(eps) - 1) % 2 else 1,
                                     _stored(q_cube.entry(eps), p))
            for j in range(q_cube.dimension):
                target = _bump(eps, j)
                if not eps[j] and target in keys:
                    entries[eps, target] = (-1 if sum(eps[:j]) % 2 else 1,
                                            _stored(q_cube.edge(eps, j), p))
        diffs[q] = _assemble(layout, below, entries)
    ranks = {q: sum(r for _, r in layout) for q, layout in summands.items()}
    return ChainComplex(ranks, diffs)


def comparison(q_cube):
    """The chain map from the initial vertex into the punctured limit."""
    limit = punctured_limit(q_cube)
    origin = (0,) * q_cube.dimension
    initial = q_cube.entry(origin)
    mats = {}
    for q in initial.support:
        layout = _limit_summands(q_cube, q)
        edges = {
            (origin, eps): (1, _stored(q_cube.edge(origin, eps.index(1)), q))
            for eps, _ in layout if sum(eps) == 1
        }
        mats[q] = _assemble([(origin, initial.rank(q))], layout, edges)
    return ChainMap(initial, limit, mats)


def total_fiber(q_cube):
    """Fiber of the initial vertex over the limit of the punctured cube."""
    return mapping_fiber(comparison(q_cube)).complex


# ---------------------------------------------------------------------------
# the fiber-sequence recursion for total fibers
# ---------------------------------------------------------------------------


class RecursionReport(NamedTuple):
    ok: bool
    detail: str


def _induced_fiber_map(q_cube, direction):
    """tfib(front) -> tfib(back) induced by the edges in one direction."""
    front = q_cube.face(direction, 0)
    back = q_cube.face(direction, 1)
    c_front = comparison(front)
    c_back = comparison(back)
    limit_mats = {}
    for q in set(c_front.target.support) | set(c_back.target.support):
        layout = _limit_summands(front, q)
        back_layout = _limit_summands(back, q)
        keys = {eps for eps, _ in back_layout}
        limit_mats[q] = _assemble(layout, back_layout, {
            (eps, eps): (1, _stored(q_cube.edge(front.embed(eps), direction),
                                    q + sum(eps) - 1))
            for eps, _ in layout if eps in keys
        })
    phi_limit = ChainMap(c_front.target, c_back.target, limit_mats)
    phi_initial = q_cube.edge(front.embed((0,) * front.dimension), direction)
    return fiber_map(mapping_fiber(c_front), mapping_fiber(c_back), phi_initial, phi_limit)


def tfib_recursion_check(q_cube):
    """For each direction: tfib(cube) -> tfib(front) -> tfib(back) is a fiber
    sequence on homology, verified through the induced map of fibers.

    The groups of the sequences and of the iterated fibers are presented
    on cycle bases, each distinct ``_presentation_key`` once per call: the
    faces of one cube repeat their differentials.  ``homology(tfib, q)``,
    the second route, reads the elementary divisors of tfib alone."""
    tfib = total_fiber(q_cube)
    shared = {}  # presentations by content, for this call only
    results = []
    for direction in range(q_cube.dimension):
        fib = mapping_fiber(_induced_fiber_map(q_cube, direction))
        iterated = fib.complex
        les = fiber_les_report(fib, shared)
        lo = tfib.lo
        hi = tfib.hi
        if iterated.support:
            lo = min(lo, iterated.lo)
            hi = max(hi, iterated.hi)
        match = all(
            homology(tfib, q) == _homology_data(iterated, q, shared)[0]
            for q in range(lo, hi + 1)
        )
        results.append((direction, match, les.ok))
    detail = "; ".join(
        f"direction {d}: homology {'=' if m else '!='} iterated fiber, "
        f"sequence {'exact' if e else 'NOT exact'}"
        for d, m, e in results
    )
    return RecursionReport(all(m and e for _, m, e in results), detail)


# ---------------------------------------------------------------------------
# torus models and functorial maps
# ---------------------------------------------------------------------------


def torus_model(d, reduced=False):
    """Zero-differential exterior model of a rank-``d`` torus.

    Degree ``q`` has rank ``C(d, q)``; the reduced variant drops the single
    degree-0 class, modelling the summand complementary to the base point.
    """
    if d < 0:
        raise SpecError("torus rank must be nonnegative")
    lo = 1 if reduced else 0
    return ChainComplex({q: comb(d, q) for q in range(lo, d + 1)}, {})


def torus_map(a):
    """Chain map of torus models induced by an integer matrix, acting in
    degree ``q`` through the ``q``-th compound matrix (all ``q x q`` minors).

    Functorial on the nose by the Cauchy-Binet formula.
    """
    return ChainMap(torus_model(a.rows), torus_model(a.cols),
                    _compound_matrices(a, reduced=False))


def _compound_matrices(a, reduced):
    """The degreewise matrices of ``torus_map(a)``, or from degree 1 up
    between reduced torus models when ``reduced``."""
    mats = {}
    for q in range(1 if reduced else 0, a.rows + 1):
        rows = []
        for s in combinations(range(a.rows), q):
            row = []
            for t in combinations(range(a.cols), q):
                minor = Mat(
                    [tuple(a.data[i][j] for j in t) for i in s], cols=q
                )
                row.append(minor.det() if q else 1)
            rows.append(row)
        mats[q] = rows
    return mats


# ---------------------------------------------------------------------------
# the projective line, weight by weight
# ---------------------------------------------------------------------------


class WeightEntry(NamedTuple):
    weight: object
    chart: str
    method: str
    substitutions: tuple
    homology: dict
    acyclic: bool


class P1Report(NamedTuple):
    window: int
    entries: tuple
    ok: bool


def _nat_chart(sign):
    return AffineMonoid([(sign,)], w=[[1]])


def _nerve_piece_chains(monoid, v):
    bound = pointedness_bound(monoid, (v,))
    piece = dihedral_nerve_piece(monoid, (tuple(v),), bound)
    chains = normalized_chains(piece)
    if chains.valid_hi is not None:
        raise CertificateError(
            f"weight {v} chains are not certified complete at depth {bound}"
        )
    return chains


def _circle_chains():
    chains = normalized_chains(circle_model(3))
    if chains.valid_hi is not None:
        raise CertificateError("circle model chains must be complete")
    return chains


def p1_report(window):
    """Per-weight homology of the two-chart descent square for the
    projective line.  At weight 0 the limit over the circle model is
    computed and must be ``Z^2`` in degree 0.  A nonzero weight lies in one
    chart; after the cone substitution its square pulls ``id: piece ->
    piece`` back along ``0 -> piece``, so its computed limit is acyclic by
    construction and the answer rests on ``SUB_POSITIVE_CONE`` alone."""
    if window < 1:
        raise SpecError("weight window must be at least 1")
    charts = {sign: _nat_chart(sign) for sign in (1, -1)}
    entries = []
    for j in range(-window, window + 1):
        if j == 0:
            point = ChainComplex({0: 1}, {})
            circle = _circle_chains().complex
            into = ChainMap(point, circle, {0: [[1]]})
            square = cospan_square(into, into)
            chart, substitution = "both", SUB_CIRCLE_MODEL
        else:
            sign = 1 if j > 0 else -1
            chart = "x >= 0" if j > 0 else "x <= 0"
            piece = _nerve_piece_chains(charts[sign], (j,)).complex
            empty = ChainComplex({}, {})
            square = cospan_square(
                identity_chain_map(piece), ChainMap(empty, piece, {})
            )
            substitution = SUB_POSITIVE_CONE
        limit = punctured_limit(square)
        table = homology_table(limit, limit.support)
        entries.append(
            WeightEntry(
                weight=j,
                chart=chart,
                method="chain",
                substitutions=(substitution,),
                homology=table,
                acyclic=j != 0 and not table,
            )
        )
    by_weight = {e.weight: e for e in entries}
    zero_entry = by_weight[0]
    ok = (
        all(e.acyclic for j, e in by_weight.items() if j != 0)
        and set(zero_entry.homology) == {0}
        and zero_entry.homology[0] == free_group(2)
    )
    return P1Report(window, tuple(entries), ok)


# ---------------------------------------------------------------------------
# the twisted projective line
# ---------------------------------------------------------------------------


class SummandEntry(NamedTuple):
    name: str
    input_degree: int
    homology: dict
    label: str


class PsigmaReport(NamedTuple):
    cartesian: bool
    mutation_breaks: bool
    summands: tuple
    substitutions: tuple
    detail: str


# Weight block of the gluing square for the line with weight-reversing
# involution.  Per weight the two charts contribute one circle each, the
# double torus contributes two (one per component), and the corner holds
# the two weights on each of the two torus components, in slot order
# (first component weight +, first -, second +, second -).
#
# The chart restrictions are slot-diagonal: each chart keeps its own
# coordinate, so its weight-j circle lands on the matching component's
# internal weight +j.
PSIGMA_RESTRICTION = ((1, 0, 0, 0), (0, 0, 1, 0))
# The projection from the ambient torus doubles each weight class into the
# identity copy and the involution copy; the involution reverses weights
# and reverses the orientation of the weight circle, so its block carries
# a sign in degree one.
PSIGMA_UNIT = {
    0: ((1, 0, 0, 1), (0, 1, 1, 0)),
    1: ((1, 0, 0, -1), (0, 1, -1, 0)),
}


def _copies(c, n):
    """Direct sum of ``n`` copies of ``c``."""
    return tensor_complex(ChainComplex({0: n}, {}), c)


def _block_map(source, target, copy_mats, c):
    """Chain map acting on copies of ``c`` by the copy matrix
    ``copy_mats[q]`` in each degree ``q``."""
    mats = {}
    for q in c.support:
        copies = [{j: a for j, a in enumerate(row) if a} for row in copy_mats[q]]
        mats[q] = _kron(copies, _identity_rows(c.rank(q)), c.rank(q))
    return ChainMap(source, target, mats)


def _psigma_square(restriction, unit):
    circle = _circle_chains().complex
    two = _copies(circle, 2)
    two_other = _copies(circle, 2)
    four = _copies(circle, 4)
    f = _block_map(two, four, {q: restriction for q in circle.support}, circle)
    g = _block_map(two_other, four, unit, circle)
    return cospan_square(f, g)


def psigma_report():
    """Certifies the per-weight gluing square of the line with
    weight-reversing involution and reports the two summand limits of the
    remaining weight-zero piece."""
    square = _psigma_square(PSIGMA_RESTRICTION, PSIGMA_UNIT)
    fib = total_fiber(square)
    cartesian = is_acyclic(fib)

    mutated = tuple(
        tuple(0 if (i, j) == (0, 0) else v for j, v in enumerate(row))
        for i, row in enumerate(PSIGMA_RESTRICTION)
    )
    bad = _psigma_square(mutated, PSIGMA_UNIT)
    bad_fib = total_fiber(bad)
    mutation_breaks = not is_acyclic(bad_fib)

    z0 = ChainComplex({0: 1}, {})
    z1 = ChainComplex({1: 1}, {})
    zz0 = ChainComplex({0: 2}, {})
    zz1 = ChainComplex({1: 2}, {})
    unit_square = cospan_square(
        ChainMap(z0, zz0, {0: [[1, 1]]}),
        identity_chain_map(zz0),
    )
    unit_limit = punctured_limit(unit_square)
    unit_homology = homology_table(unit_limit, unit_limit.support)
    susp_square = cospan_square(
        ChainMap(z1, zz1, {1: [[1, 1]]}),
        ChainMap(ChainComplex({}, {}), zz1, {}),
    )
    susp_limit = punctured_limit(susp_square)
    susp_homology = homology_table(susp_limit, susp_limit.support)
    summands = (
        SummandEntry("unit", 0, unit_homology, ""),
        SummandEntry(
            "suspension",
            1,
            susp_homology,
            "weight-sigma twisted (not verified equivariantly)",
        ),
    )
    ok_summands = (
        set(unit_homology) == {0}
        and unit_homology[0] == free_group(1)
        and set(susp_homology) == {0}
        and susp_homology[0] == free_group(1)
    )
    detail = (
        "doubled square per weight block j > 0 (identical for every j); "
        f"summand limits {'match' if ok_summands else 'DIFFER from'} one free "
        "class each"
    )
    return PsigmaReport(
        cartesian and ok_summands,
        mutation_breaks,
        summands,
        (SUB_CIRCLE_MODEL,),
        detail,
    )


# ---------------------------------------------------------------------------
# the smash-sphere bookkeeping for the h map
# ---------------------------------------------------------------------------


class HMapReport(NamedTuple):
    homology: dict
    ok: bool


def smash_sphere_model(k):
    """Reduced model of a ``k``-fold smash of circles: one class in degree k."""
    if k < 0:
        raise SpecError("smash degree must be nonnegative")
    return ChainComplex({k: 1}, {})


def h_map_cofiber_check(d):
    """Cofiber of the reduced smash model of the twist-compatible inclusion:
    two free classes in degree ``d`` and nothing else.

    The cofiber is the mapping fiber shifted up one degree (``cone_q`` is
    ``fib_{q-1}``), so its homology is the fiber's, one degree up."""
    if d < 1:
        raise SpecError("d must be at least 1")
    source = smash_sphere_model(d - 1)
    target = smash_sphere_model(d)
    h = ChainMap(source, target, {})
    fib = mapping_fiber(h).complex
    table = {q + 1: g for q, g in homology_table(fib, fib.support).items()}
    ok = set(table) == {d} and table[d] == free_group(2)
    return HMapReport(table, ok)


# ---------------------------------------------------------------------------
# higher projective spaces
# ---------------------------------------------------------------------------


def halfspace_positives(n, v):
    """Indices (1-based; n+1 is the anti-diagonal constraint) of the chart
    halfspaces in whose strictly positive part the weight lies."""
    out = [j + 1 for j in range(n) if v[j] > 0]
    if sum(v) < 0:
        out.append(n + 1)
    return tuple(out)


def chart_monoid(n, missing):
    """The chart monoid of ``P^n`` determined by dropping one halfspace.

    ``missing = n + 1`` gives the nonnegative orthant; ``missing = j`` keeps
    ``x_i >= 0`` for ``i != j`` together with ``x_1 + ... + x_n <= 0``.
    """
    e = [_unit_vec(n, i) for i in range(n)]
    if missing == n + 1:
        return AffineMonoid(e)
    j = missing - 1
    gens = [tuple(a - b for a, b in zip(e[i], e[j])) for i in range(n) if i != j]
    return AffineMonoid(gens + [tuple(-c for c in e[j])])


def _in_chart(n, missing, v):
    for j in range(n):
        if j != missing - 1 and v[j] < 0:
            return False
    if missing != n + 1 and sum(v) > 0:
        return False
    return True


def _substituted_weight_cube(n, v, positives, charts=None):
    """The chart cube at weight ``v`` after replacing every entry by its
    image under the cone equivalences in the positive directions.

    Only called when the positive directions determine a single chart, so
    that every remaining entry is either empty or a finite piece of that
    chart's nerve.  ``charts`` holds the chart monoids of ``P^n`` already
    built by the caller, by missing direction; the one built here joins it.
    """
    missing = next(m for m in range(1, n + 2) if m not in positives)
    charts = {} if charts is None else charts
    if missing not in charts:
        charts[missing] = chart_monoid(n, missing)
    monoid = charts[missing]
    if not _in_chart(n, missing, v):
        raise CertificateError(f"weight {v} escaped its certified chart")
    piece = _nerve_piece_chains(monoid, v).complex
    zero = ChainComplex({}, {})

    def edge(source, target, eps, j):
        return ChainMap(zero, target, {}) if source is zero else identity_chain_map(piece)

    return CubeDiagram(n + 1, lambda eps: piece if eps[missing - 1] else zero, edge)


def _unit_lattice(n, index_set):
    """Basis (rows) of the unit group of ``M_I`` inside ``Z^n``."""
    constraints = [_unit_vec(n, j - 1) if j <= n else (1,) * n for j in sorted(index_set)]
    if not constraints:
        return Mat.identity(n)
    return row_kernel(Mat(list(zip(*constraints)), cols=len(constraints)))


def origin_cube(n):
    """The reduced weight-zero chart cube: unit tori at every vertex with
    the functorial exterior maps of the lattice inclusions.  Each vertex
    basis has one solver, which every edge into that vertex solves
    through."""
    bases = {
        eps: _unit_lattice(n, frozenset(j + 1 for j in range(n + 1) if eps[j] == 0))
        for eps in _vertices(n + 1)
    }
    solvers = {eps: _LeftSolver(basis) for eps, basis in bases.items()}

    def edge(source, target, eps, j):
        dst = _bump(eps, j)
        rows = solvers[dst].solve(bases[eps].data)
        if None in rows:
            raise CertificateError("unit lattice does not include into its neighbour")
        return ChainMap(
            source, target, _compound_matrices(Mat(rows, cols=bases[dst].rows), reduced=True)
        )

    return CubeDiagram(n + 1, lambda eps: torus_model(bases[eps].rows, reduced=True), edge)


class OriginEntry(NamedTuple):
    homology: dict
    assembled_rank: int
    parity_ok: bool
    substitutions: tuple
    ok: bool


class PnReport(NamedTuple):
    n: int
    window: int
    entries: tuple
    origin: OriginEntry
    ok: bool


def pn_report(n, window):
    """Per-weight certification for the chart cube of ``P^n`` plus the
    weight-zero torus assembly.

    Nonzero weights are acyclic on the strength of the cone substitution
    (``SUB_POSITIVE_CONE``) alone.  Those that pin down a single chart with
    ``l1`` norm at most 3 also get the total fiber of their substituted
    cube computed ("chain"); its edges outside the missing direction are
    identities or ``0 -> 0``, so this tests the cube machinery at size, not
    the substitution.  The rest ("structural") compute nothing.  At weight
    zero the total fiber of the reduced unit-torus cube is computed; with
    the unit class it must assemble to rank ``n + 1`` (``parity_ok``).
    """
    if not 1 <= n <= 4:
        raise SpecError("n must be between 1 and 4")
    if window < 1:
        raise SpecError("weight window must be at least 1")
    charts = {}  # chart monoids by missing direction, for this call only
    entries = []
    ok = True
    for v in product(range(-window, window + 1), repeat=n):
        if not any(v):
            continue
        positives = halfspace_positives(n, v)
        if not positives:
            raise CertificateError(
                f"nonzero weight {v} lies in no positive halfspace"
            )
        chart = f"direction {positives[0]}"
        if len(positives) >= n and sum(abs(x) for x in v) <= 3:
            cube = _substituted_weight_cube(n, v, positives, charts)
            fib = total_fiber(cube)
            table = homology_table(fib, fib.support)
            entry = WeightEntry(
                weight=v,
                chart=chart,
                method="chain",
                substitutions=(SUB_POSITIVE_CONE,),
                homology=table,
                acyclic=not table,
            )
        else:
            entry = WeightEntry(
                weight=v,
                chart=chart,
                method="structural",
                substitutions=(SUB_POSITIVE_CONE,),
                homology={},
                acyclic=True,
            )
        ok = ok and entry.acyclic
        entries.append(entry)

    cube = origin_cube(n)
    fib = total_fiber(cube)
    table = homology_table(fib, fib.support)
    origin_ok = (
        set(table) == {-1}
        and table[-1] == free_group(n)
    )
    assembled = 1 + (table[-1].free_rank if -1 in table else 0)
    parity_ok = assembled == n + 1
    origin = OriginEntry(
        homology=table,
        assembled_rank=assembled,
        parity_ok=parity_ok,
        substitutions=(SUB_TORUS_FORMALITY, SUB_REDUCED_SPLIT),
        ok=origin_ok and parity_ok,
    )
    return PnReport(n, window, tuple(entries), origin, ok and origin.ok)
