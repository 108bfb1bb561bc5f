"""Bounded chain complexes of free abelian groups and their homology.

Chains are integer row vectors; the degree-``q`` differential is a matrix
``rank(q) x rank(q-1)`` acting by right multiplication.  Differentials and
chain maps have one form: one parser reads them into sparse rows, on which
every chain equation (``d d = 0``, ``d f = f d``, a commuting square) is
checked at construction.  Fibers, tensor products and cube limits are
assembled by ``_assemble`` from signed blocks of stored sparse rows (and
their ``_kron``); a dense ``Mat`` is built only where homology reads one,
through ``diff`` or ``map``.  Negative degrees are first class — mapping
fibers shift below zero and nothing here assumes support in nonnegative
degrees.

Homology in each degree is a finitely generated abelian group read off
the elementary divisors of the two differentials at that degree, found by
eliminating unit pivots on sparse rows and checked against ranks over
``F_2``.  A complex is reduced from the top degree down, and each
differential first drops the rows that the pivots of the one above it
paired (clearing); each route clears with its own pivots.  Presented on
a basis of the cycle lattice, it carries the homomorphisms that chain
maps induce, and the mapping fiber of a chain map comes with the map and
an exactness check for the resulting long sequence; its projection to
the source is built where it is read.  Both routes are memoized on the
complex: each differential is reduced, and each degree presented, at
most once.  The presentation alone can also be shared between complexes
by content, through a table that a caller keeps for one computation
(``cubes.tfib_recursion_check`` keeps one per call): it is a function of
the ranks and differentials around its degree, so complexes that agree
there get the same one.  The divisor route is never shared, so it stays
a check on the presentations.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CertificateError, SpecError
from .fgab import (
    Mat,
    _LeftSolver,
    _elementary_divisors,
    group,
    hom,
    is_exact,
    row_kernel,
)


class ChainComplex:
    """A degreewise finitely generated free complex, given by ranks and
    differentials ``diff(q): C_q -> C_{q-1}``.

    A differential is read by :func:`_sparse_rows` and kept as sparse
    rows, on which ``d d = 0`` is checked and :func:`homology` reduces it;
    ``diff`` gives it as a ``Mat``, built on first use."""

    __slots__ = ("_ranks", "_rows", "_mats", "_divisors", "_presented")

    def __init__(self, ranks, diffs):
        self._ranks = {q: r for q, r in ranks.items() if r}
        for q, r in self._ranks.items():
            if r < 0:
                raise SpecError(f"negative rank {r} in degree {q}")
        self._rows, self._mats = {}, {}
        self._divisors = {}  # degree -> (divisors, unit pivots, F_2 pivots), see _divisors
        self._presented = {}  # degree -> (group, cycle basis, its solver), see _homology_data
        for q, m in diffs.items():
            rows = _sparse_rows(m, self.rank(q), self.rank(q - 1),
                                f"differential in degree {q}")
            if any(rows):
                self._rows[q] = rows
        for q, rows in self._rows.items():
            below = self._rows.get(q - 1)
            if below is not None and any(
                any(_times(row, below).values()) for row in rows
            ):
                raise SpecError(f"d d != 0 from degree {q}")

    def rank(self, q):
        return self._ranks.get(q, 0)

    def diff(self, q):
        return _mat(self, q, self.rank(q), self.rank(q - 1))

    @property
    def support(self):
        return tuple(sorted(self._ranks))

    @property
    def lo(self):
        return min(self._ranks) if self._ranks else 0

    @property
    def hi(self):
        return max(self._ranks) if self._ranks else 0

    def __repr__(self):
        ranks = {q: self.rank(q) for q in self.support}
        return f"ChainComplex(ranks={ranks})"


def _sparse_rows(m, height, width, what):
    """The matrix ``m``, a ``Mat`` or rows that are each dense or sparse
    ``{col: coeff}``, as a tuple of sparse rows: every entry goes through
    ``int`` and zeros are dropped.  Raises SpecError unless ``m`` is
    ``height x width``."""
    out, fits, cols = [], True, set(range(width))
    try:
        for row in m.data if isinstance(m, Mat) else m:
            if isinstance(row, dict):
                fits = fits and cols.issuperset(row)
                entries = zip(map(int, row), map(int, row.values()))
            else:
                fits = fits and len(row) == width
                entries = enumerate(map(int, row))
            out.append({j: a for j, a in entries if a})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what}: {exc}") from exc
    if not fits or len(out) != height:
        raise SpecError(f"{what} does not fit {height} x {width}")
    return tuple(out)


def _mat(x, q, height, width):
    """The matrix of ``x`` (a complex or a chain map) in degree ``q``, as a
    ``Mat`` built from its sparse rows on first use and kept."""
    m = x._mats.get(q)
    if m is None:
        rows = x._rows.get(q, ({},) * height)
        m = x._mats[q] = Mat([[row.get(j, 0) for j in range(width)] for row in rows],
                             cols=width)
    return m


def _product(a, b):
    """The product of two matrices of sparse rows, as ``{i: row i}`` over
    its nonzero rows, with zero entries dropped; None is a zero matrix.
    ``d f = f d`` and every commuting square compare two of these."""
    if a is None or b is None:
        return {}
    out = {}
    for i, row in enumerate(a):
        row = {k: v for k, v in _times(row, b).items() if v}
        if row:
            out[i] = row
    return out


def _commutes(a, b, c, d, q):
    """Whether the chain maps ``a`` then ``b`` and ``c`` then ``d`` agree in
    degree ``q``, compared on sparse rows."""
    return (_product(_stored(a, q), _stored(b, q))
            == _product(_stored(c, q), _stored(d, q)))


def _times(row, rows):
    """The sparse row ``row`` times the matrix of sparse ``rows``, as a
    sparse row that may hold zeros."""
    acc = {}
    for j, a in row.items():
        for k, b in rows[j].items():
            acc[k] = acc.get(k, 0) + a * b
    return acc


def _offsets(summands):
    """``{key: (offset, size)}`` and the total size of ordered summands."""
    at, total = {}, 0
    for key, size in summands:
        at[key], total = (total, size), total + size
    return at, total


def _assemble(rows, cols, entries):
    """Block matrix over ordered summands, as sparse rows.

    ``rows`` and ``cols`` list the block rows and block columns as
    ``(key, size)`` pairs in order; ``entries`` maps ``(row key, col key)``
    to ``(sign, block)``: a sign of 1 or -1, and sparse rows that fit the
    row block's size and the column block's width, or None for zero.  A
    block that does not fit raises ValueError.  Missing blocks are zero.

    >>> _assemble([("x", 1), ("y", 2)], [("u", 1), ("v", 2)],
    ...           {("x", "u"): (1, [{0: 5}]), ("y", "v"): (-1, [{0: 1, 1: 2}, {1: 4}])})
    [{0: 5}, {1: -1, 2: -2}, {2: -4}]
    >>> _assemble([("x", 2)], [], {})
    [{}, {}]
    >>> _assemble([("x", 1)], [("u", 2)], {("x", "u"): (1, [{0: 1}, {1: 1}])})
    Traceback (most recent call last):
        ...
    ValueError: block ('x', 'u') does not fit 1 x 2
    """
    (row_at, height), (col_at, _) = _offsets(rows), _offsets(cols)
    out = [{} for _ in range(height)]
    for (rkey, ckey), (sign, block) in entries.items():
        if block is None:
            continue
        top, h = row_at[rkey]
        left, w = col_at[ckey]
        if len(block) != h:
            raise ValueError(f"block {(rkey, ckey)} does not fit {h} x {w}")
        for i, row in enumerate(block, top):
            if row and max(row) >= w:
                raise ValueError(f"block {(rkey, ckey)} does not fit {h} x {w}")
            out[i].update({left + j: sign * a for j, a in row.items()})
    return out


def _kron(a, b, width):
    """``fgab.kron`` of two matrices of sparse rows, ``b`` being ``width``
    wide; None, a zero matrix, gives None."""
    if a is None or b is None:
        return None
    return [{j * width + l: x * y for j, x in ra.items() for l, y in rb.items()}
            for ra in a for rb in b]


def _identity_rows(n):
    return [{i: 1} for i in range(n)]


def _stored(x, q):
    """The stored sparse rows of ``x`` in degree ``q``; None if zero."""
    return x._rows.get(q)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def _homology_data(c, q, shared=None):
    """The homology group at ``q``, the cycle basis (rows in ``C_q``) on
    which it is presented and a ``_LeftSolver`` for that basis, memoized on
    ``c``: the basis is factored at most once, for the relations and for
    every map into this degree's homology.

    ``shared``, a dict kept by the caller, also shares presentations
    between complexes: a degree whose ``_presentation_key`` is in it gets
    the same ``(group, cycle basis, solver)``, and a new one is stored
    there as well as on ``c``.  This is sound because ``_presentation``
    reads nothing of ``c`` but what the key holds, so the shared triple is
    the one it would build for ``c``; its solver is then factored once for
    every complex that has it."""
    found = c._presented.get(q)
    if found is None:
        if shared is None:
            found = _presentation(c, q)
        else:
            key = _presentation_key(c, q)
            found = shared.get(key)
            if found is None:
                found = shared[key] = _presentation(c, q)
        c._presented[q] = found
    return found


def _presentation_key(c, q):
    """All that ``_presentation(c, q)`` reads of ``c``, as a hashable key:
    the ranks in degrees ``q - 1``, ``q`` and ``q + 1`` and the sparse rows
    of ``d_q`` and ``d_{q+1}``; every degree of rank 0 has the one key
    ``()``, since its presentation reads nothing."""
    if not c.rank(q):
        return ()
    return (c.rank(q - 1), c.rank(q), c.rank(q + 1),
            _frozen_rows(c, q), _frozen_rows(c, q + 1))


def _frozen_rows(c, q):
    """The stored sparse rows of ``d_q`` as one flat tuple, each row's
    length and then its ``column, entry`` pairs in stored order (None if
    zero).  Equal tuples mean equal rows; one flat tuple per matrix keeps
    a key far smaller than a set per row would."""
    rows = c._rows.get(q)
    if rows is None:
        return None
    flat = []
    for row in rows:
        flat.append(len(row))
        for item in row.items():
            flat.extend(item)
    return tuple(flat)


def _presentation(c, q):
    """``_homology_data(c, q)``, built without the memo."""
    n = c.rank(q)
    if n == 0:
        cycles = Mat([], cols=0)
        return group(0, cycles), cycles, _LeftSolver(cycles)
    if c.rank(q - 1):
        cycles = row_kernel(c.diff(q))
    else:
        cycles = Mat.identity(n)
    solver = _LeftSolver(cycles)
    boundaries = c.diff(q + 1).data
    rels = solver.solve(boundaries)
    for row, coeffs in zip(boundaries, rels):
        if coeffs is None:  # impossible once d d = 0 holds
            raise SpecError(
                f"boundary {tuple(row)} is not a cycle in degree {q}"
            )
    return group(cycles.rows, Mat(rels, cols=cycles.rows)), cycles, solver


def homology(c, q):
    """The homology of the complex in one degree, from the elementary
    divisors of the differentials out of and into it: free of rank
    ``rank C_q - rk d_q - rk d_{q+1}``, plus ``Z/e`` for each divisor
    ``e >= 2`` of ``d_{q+1}``.  ``_homology_data`` presents the same group
    on a cycle basis."""
    out, into = _divisors(c, q), _divisors(c, q + 1)
    torsion = [e for e in into if e >= 2]
    n = c.rank(q) - len(out) - len(into) + len(torsion)
    return group(n, [[e if j == i else 0 for j in range(n)]
                     for i, e in enumerate(torsion)])


def _divisors(c, q):
    """The elementary divisors of ``c.diff(q)``, memoized on ``c``.

    The complex is reduced from the top degree down, with clearing (the
    twist of Chen-Kerber, *Persistent homology computation with a twist*,
    2011): every differential from ``c.hi`` down to ``d_{q+1}`` is reduced
    first, and ``d_q`` drops the rows whose ``q``-simplex was a pivot column
    of ``d_{q+1}``.  The memo keeps, beside each degree's divisors, its unit
    pivots and its ``F_2`` echelon pivots, and each route clears with its
    own.  Dropping a row changes no divisor and no rank: for a unit pivot
    ``(s, t)``, the reduced row of ``s`` is an integral combination of rows
    of ``d_{q+1}``, with a unit at ``t`` and zeros at the earlier pivot
    columns, so ``d d = 0`` writes row ``t`` of ``d_q`` as an integral
    combination of kept rows and rows of later pivot columns, and by
    reverse induction every dropped row lies in the lattice of the kept
    ones.  Over ``F_2`` an echelon row is zero left of its pivot column, and
    the same induction runs from the rightmost pivot column.

    Raises CertificateError unless as many divisors are odd as the rank of
    the differential over ``F_2``, computed apart on bitset rows.  The
    degrees reduced by one call are checked from the bottom up and kept
    only once all pass, so a failure names the lowest one."""
    found = c._divisors.get(q)
    if found is None:
        top = q
        while top < c.hi and top + 1 not in c._divisors:
            top += 1
        _, units, echelon = c._divisors.get(top + 1, ((), (), ()))
        reduced = []
        for p in range(top, q - 1, -1):
            rows = c._rows.get(p, ())
            # each route drops the rows that its own pivots above paired
            kept = [row for i, row in enumerate(rows) if i not in units]
            kept2 = [row for i, row in enumerate(rows) if i not in echelon]
            units, echelon = set(), set()  # the pivots of d_p, for d_{p-1}
            divisors = _elementary_divisors(kept, units)
            reduced.append((p, divisors, units, echelon, _rank_mod2(kept2, echelon)))
        for p, divisors, _, _, rank2 in reversed(reduced):
            odd = sum(e % 2 for e in divisors)
            if odd != rank2:
                raise CertificateError(
                    f"differential in degree {p}: {len(divisors)} elementary "
                    f"divisors, {odd} of them odd, but rank {rank2} over F_2"
                )
        for p, divisors, units, echelon, _ in reduced:
            c._divisors[p] = (divisors, units, echelon)
        found = c._divisors[q]
    return found[0]


def _rank_mod2(rows, pivots=None):
    """The rank over ``F_2`` of the matrix of sparse ``rows``, by
    elimination on rows packed into Python ints; the pivot column of each
    echelon row (its lowest column) is added to the set ``pivots`` when one
    is given.

    >>> _rank_mod2([{0: 1, 1: 1}, {0: 1, 1: -1}])
    1
    """
    echelon = {}  # lowest set bit -> the row that has it
    for row in rows:
        bits = 0
        for j, a in row.items():
            if a & 1:
                bits |= 1 << j
        while bits:
            low = bits & -bits
            other = echelon.get(low)
            if other is None:
                echelon[low] = bits
                break
            bits ^= other
    if pivots is not None:
        pivots.update(low.bit_length() - 1 for low in echelon)
    return len(echelon)


def homology_table(c, degrees):
    """The nontrivial homology groups of ``c`` in ``degrees``, by degree."""
    table = {q: homology(c, q) for q in degrees}
    return {q: h for q, h in table.items() if not h.is_trivial()}


def is_acyclic(c):
    """Whether every homology group is trivial (outside the support it is)."""
    return not homology_table(c, c.support)


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


class ChainMap:
    """A degreewise matrix ``C_q -> D_q`` commuting with the differentials.

    A matrix is read by :func:`_sparse_rows` and kept as sparse rows, on
    which ``d f = f d`` is checked at construction; ``map`` gives it as a
    ``Mat``, built on first use."""

    __slots__ = ("source", "target", "_rows", "_mats")

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self._rows, self._mats = {}, {}
        for q, m in mats.items():
            rows = _sparse_rows(m, source.rank(q), target.rank(q),
                                f"chain map in degree {q}")
            if any(rows):
                self._rows[q] = rows
        for q in set(source.support) | set(target.support):
            if (_product(source._rows.get(q), self._rows.get(q - 1))
                    != _product(self._rows.get(q), target._rows.get(q))):
                raise SpecError(f"chain map does not commute with d in degree {q}")

    def map(self, q):
        return _mat(self, q, self.source.rank(q), self.target.rank(q))

    def __repr__(self):
        return f"ChainMap(degrees={sorted(self._rows)})"


def identity_chain_map(c):
    return ChainMap(c, c, {q: _identity_rows(c.rank(q)) for q in c.support})


def induced_hom(f, q, shared=None):
    """The homomorphism on degree-``q`` homology induced by a chain map;
    ``shared`` is passed to ``_homology_data``."""
    hs, cycles_s, _ = _homology_data(f.source, q, shared)
    ht, cycles_t, solver = _homology_data(f.target, q, shared)
    images = (cycles_s @ f.map(q)).data
    rows = solver.solve(images) if cycles_t.rows else [()] * len(images)
    for image, coeffs in zip(images, rows):
        if coeffs is None:
            raise SpecError(
                f"chain map image {image} is not a cycle in degree {q}"
            )
    return hom(hs, ht, Mat(rows, cols=cycles_t.rows))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


class MappingFiber(NamedTuple):
    """The fiber ``complex`` of ``map: C -> D``; ``proj``, its projection
    to ``C``, is built from sparse identity rows on each read."""

    map: ChainMap
    complex: ChainComplex

    @property
    def proj(self):
        c, d = self.map.source, self.map.target
        return ChainMap(self.complex, c, {
            q: _identity_rows(c.rank(q)) + [{}] * d.rank(q + 1)
            for q in self.complex.support
        })


def _fiber_summands(f, q):
    """Summands of degree ``q`` of the mapping fiber of ``f``: ``C_q``,
    then ``D_{q+1}``."""
    return [("c", f.source.rank(q)), ("d", f.target.rank(q + 1))]


def mapping_fiber(f):
    """The strict fiber of a chain map: ``fib_q = C_q + D_{q+1}`` with
    ``d(c, e) = (d c, f(c) - d e)``, recorded with ``f``.  No chain map is
    built here: ``MappingFiber.proj`` builds the projection when read."""
    c, d = f.source, f.target
    degrees = sorted(set(c.support) | {q - 1 for q in d.support})
    diffs = {
        q: _assemble(_fiber_summands(f, q), _fiber_summands(f, q - 1), {
            ("c", "c"): (1, _stored(c, q)),
            ("c", "d"): (1, _stored(f, q)),
            ("d", "d"): (-1, _stored(d, q + 1)),
        })
        for q in degrees
    }
    fib = ChainComplex({q: c.rank(q) + d.rank(q + 1) for q in degrees}, diffs)
    return MappingFiber(f, fib)


def connecting_hom(fib, q, shared=None):
    """The map ``H_{q+1}(target) -> H_q(fiber)`` sending a cycle ``z`` to
    ``(0, z)``; with the projection and the map itself this makes the
    homology of the fiber sequence exact.  ``shared`` is passed to
    ``_homology_data``."""
    f = fib.map
    ht, cycles_t, _ = _homology_data(f.target, q + 1, shared)
    hf, cycles_f, solver = _homology_data(fib.complex, q, shared)
    pad = (0,) * f.source.rank(q)
    vecs = [pad + row for row in cycles_t.data]
    rows = solver.solve(vecs) if cycles_f.rows else [()] * len(vecs)
    if None in rows:
        raise SpecError(f"(0, z) is not a cycle in fiber degree {q}")
    return hom(ht, hf, Mat(rows, cols=cycles_f.rows))


def fiber_les_report(fib, shared=None):
    """Exactness of the long sequence
    ``... -> H_{q+1}(D) -> H_q(fib) -> H_q(C) -> H_q(D) -> ...``
    of the fiber ``fib`` of ``fib.map: C -> D``, over the support range of
    the fiber, widened by one on each side.  Every group is presented by
    ``_homology_data``, which ``shared`` is passed to."""
    lo, hi = fib.complex.lo - 1, fib.complex.hi + 1
    proj = fib.proj
    seq = []
    for q in range(hi, lo - 1, -1):
        seq.append(connecting_hom(fib, q, shared))
        seq.append(induced_hom(proj, q, shared))
        seq.append(induced_hom(fib.map, q, shared))
    return is_exact(seq)


def fiber_map(fib_f, fib_g, phi_source, phi_target):
    """The chain map ``fib(f) -> fib(g)`` between two mapping fibers
    induced by a commuting square ``phi_target o f = g o phi_source``
    (checked on sparse rows)."""
    f, g = fib_f.map, fib_g.map
    for q in set(f.source.support) | set(f.target.support):
        if not _commutes(f, phi_target, phi_source, g, q):
            raise SpecError(f"square does not commute in degree {q}")
    mats = {
        q: _assemble(_fiber_summands(f, q), _fiber_summands(g, q), {
            ("c", "c"): (1, _stored(phi_source, q)),
            ("d", "d"): (1, _stored(phi_target, q + 1)),
        })
        for q in fib_f.complex.support
    }
    return ChainMap(fib_f.complex, fib_g.complex, mats)


def _tensor_summands(c, d, q):
    """Summands ``C_a (x) D_b`` of degree ``q`` of ``c (x) d``, keyed by
    ``(a, b)`` in increasing ``a``; each has the basis order of ``kron``,
    ``x_i (x) y_j`` at ``i * d.rank(b) + j``."""
    return [((a, q - a), c.rank(a) * d.rank(q - a))
            for a in c.support if d.rank(q - a)]


def tensor_complex(c, d):
    """The tensor product with the usual sign: on ``C_a x D_b``,
    ``d(x, y) = (d x, y) + (-1)**a (x, d y)``."""
    degrees = sorted({a + b for a in c.support for b in d.support})
    summands = {q: _tensor_summands(c, d, q) for q in degrees}
    diffs = {}
    for q, layout in summands.items():
        below = summands.get(q - 1)
        if below is None:
            continue
        keys = {key for key, _ in below}
        entries = {}
        for (a, b), _ in layout:
            if (a - 1, b) in keys:
                entries[(a, b), (a - 1, b)] = (1, _kron(
                    _stored(c, a), _identity_rows(d.rank(b)), d.rank(b)))
            if (a, b - 1) in keys:
                entries[(a, b), (a, b - 1)] = (-1 if a % 2 else 1, _kron(
                    _identity_rows(c.rank(a)), _stored(d, b), d.rank(b - 1)))
        diffs[q] = _assemble(layout, below, entries)
    ranks = {q: sum(n for _, n in layout) for q, layout in summands.items()}
    return ChainComplex(ranks, diffs)


def _tensor_matrices(f, g):
    """The degreewise matrices of the chain map ``f (x) g`` between the
    tensor complexes of the sources and targets: blocks ``f_a (x) g_b``."""
    mats = {}
    for q in sorted({a + b for a in f.source.support for b in g.source.support}):
        rows = _tensor_summands(f.source, g.source, q)
        cols = _tensor_summands(f.target, g.target, q)
        keys = {key for key, _ in cols}
        mats[q] = _assemble(rows, cols, {
            ((a, b), (a, b)): (1, _kron(_stored(f, a), _stored(g, b), g.target.rank(b)))
            for (a, b), _ in rows if (a, b) in keys
        })
    return mats


# ---------------------------------------------------------------------------
# chains of a truncated simplicial set
# ---------------------------------------------------------------------------


class SimplicialChains(NamedTuple):
    complex: ChainComplex
    basis: tuple  # per degree, the ordered tuple of basis simplices
    valid_hi: object  # highest degree with correct homology, or None for all


def _chains(x, bases):
    index = [
        {s: i for i, s in enumerate(level)} for level in bases
    ]
    ranks = {q: len(level) for q, level in enumerate(bases)}
    diffs = {}
    for q in range(1, x.q_max + 1):
        if not bases[q] or not bases[q - 1]:
            continue
        below = index[q - 1]
        signs = [-1 if i % 2 else 1 for i in range(q + 1)]
        rows = []
        for s in bases[q]:
            row = {}
            for sign, face in zip(signs, x.faces(q, s)):
                j = below.get(face)
                if j is not None:
                    row[j] = row.get(j, 0) + sign
            rows.append(row)
        diffs[q] = rows
    return ChainComplex(ranks, diffs)


def normalized_chains(x):
    """The complex on nondegenerate simplices, with degenerate faces
    dropped.  ``valid_hi`` is ``q_max - 1`` for a bare truncation and None
    (every degree) when the object certifies that nondegenerate simplices
    vanish above a bound within the truncation."""
    bases = [x.nondegenerate(q) for q in range(x.q_max + 1)]
    valid_hi = x.q_max - 1
    cert = x.certificate
    if cert is not None and cert[0] == "nondegenerate-bound" and cert[1] <= x.q_max:
        valid_hi = None
    return SimplicialChains(_chains(x, bases), tuple(bases), valid_hi)
