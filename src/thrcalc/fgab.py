"""Finitely generated abelian groups presented by integer relation matrices.

Elements of a group presented on n generators are length-n integer tuples
("coefficient vectors"); the group is the quotient of Z^n by the row lattice
of its relations matrix.  All arithmetic is exact, over Python ints.

Conventions
-----------
* Matrices act on the right of row vectors: a homomorphism with matrix F
  sends x to x @ F, and row i of F is the image of generator i.
* Group equality compares invariant factors and free rank only; two
  presentations of isomorphic groups compare equal.
* Each integer matrix is factored once, at the width that is read: a
  ``_LeftSolver`` is one factored row lattice, and every solution and
  row kernel read from that lattice comes from it (``solve_left`` and
  ``row_kernel`` use one solver once; ``lift_through``, and so
  ``inverse``, reads its lift and its kernel from one).  ``snf`` tracks
  only the leading columns of U that the caller keeps: the solution or
  kernel coordinates it reads, and none for invariant factors and
  lattice membership, which need only S and V.
* A product computes each distinct row of its left factor once and keeps
  nothing past that product.
* A group is the lattice its relations span, not the list of rows it was
  given: ``relations`` holds the distinct nonzero rows, in the order they
  first occur, and is the one relation matrix every caller reads.  Unit
  pivots of a large enough matrix are eliminated on sparse rows
  (``_eliminate``, the one elimination here, which the elementary divisors
  of ``homology`` also use), and only the residue goes to ``snf``.  A
  group is plain when its relations are zero read in
  generator coordinates; then ``reduce`` takes each coordinate modulo its
  Smith diagonal entry.  Only the representatives of plain groups are
  fixed by the lattice alone; any other group's follow the elimination
  and the residue's V, and differ from the dense route's by a relation.
* Work is skipped only where its outcome is known: ``snf`` returns a
  matrix already in Smith form with the identity transforms its steps
  would build, and ``is_exact`` does not test a joint with a trivial middle.
* One matrix form: a ``Mat`` keeps sparse rows, each the tuple of its
  nonzero ``(col, coeff)`` pairs in column order, so equal rows compare
  and hash equal however they were built; ``data`` is a dense view for
  output.  ``Mat(...)``, the one parser of outside input, takes dense or
  ``{col: coeff}`` rows, converts every entry with ``int``, drops zeros
  and checks the shape.  A matrix derived here from ``Mat``s (products,
  sums, Smith forms, kernels, blocks) is built by the trusted ``Mat._of``,
  which stores its rows as given.  Only ``snf`` and ``det`` work on dense
  copies.
* Tensor coordinates are ``kron``'s, for groups and complexes alike: on
  generators ``x_0, ..., x_{m-1}`` and ``y_0, ..., y_{n-1}``, the pair
  ``x_i (x) y_j`` is generator ``i * n + j``.  A map or relation built
  from a tensor of matrices is the ``kron`` of those matrices.  Every
  tensor product of groups is one ``balanced_tensor``: ``G (x) H`` modulo
  the slides ``l x (x) y - x (x) r y`` of its pairs ``(l, r)``, built as
  one group.
* Block matrices of complexes and chain maps are assembled by
  ``_assemble`` from signed ``Mat`` blocks; a direct sum pads its two
  summands itself.
* A product is taken row by row (Gustavson): a row of the left factor
  sums the rows of the right that its entries name, giving the stored row
  itself for a lone coefficient 1 and adding or subtracting whole rows for
  ``±1``; only other coefficients multiply entry by entry.
* Membership reads the Smith diagonal in three slices, on Smith
  coordinates: the generator coordinates of a plain group, else the
  residue's, ``x _to``.  By the divisibility chain the diagonal lists the
  units, then the invariant factors, then zeros, and a group records
  where the units end and where the free part starts.  A coordinate on a
  unit is zero in the group, one on a factor is taken modulo it, and one
  on the free part is kept (``reduce``) or tested for zero
  (``_first_nonzero_row`` and ``solve_left``):

  >>> g = group(4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]])
  >>> g._diag, g._units, g._free
  ((1, 2, 0, 0), 1, 2)
  >>> g.reduce((5, 3, -1, 7))
  (0, 1, -1, 7)
  >>> g._first_nonzero_row(Mat([[9, 4, 0, 0], [0, 0, 0, 1]]))
  1
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from heapq import heapify, heappop, heappush
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import SpecError


def _xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0.

    >>> _xgcd(12, 18)
    (6, -1, 1)
    >>> _xgcd(0, -5)
    (5, 0, -1)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_coeff = itemgetter(1)


class _Misfit(ValueError):
    """Rows that fit no one width: ragged, not ``cols`` wide, or with no width."""


class Mat:
    """Immutable integer matrix, stored as sparse rows.

    Row ``i`` of ``sparse`` is the tuple of ``(col, coeff)`` pairs of its
    nonzero entries in column order, each ``coeff`` an ``int`` (never a
    ``bool``); so equal rows compare and hash equal however they were
    built.  ``data`` is the dense tuple-of-tuples view, built when read.

    ``Mat(...)`` takes dense rows or ``{col: coeff}`` rows:

    >>> m = Mat([[1, 2], {1: 4, 0: 3}])
    >>> m.sparse, m @ Mat.identity(2) == m, m.det()
    ((((0, 1), (1, 2)), ((0, 3), (1, 4))), True, -2)
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, data, cols=None):
        sparse, widths, keys = [], set(), []
        pairs = {}  # one shared object per distinct (col, coeff): chain matrices repeat them
        for row in data:
            if isinstance(row, dict):
                keys.extend(row)
                row = sorted(filter(_coeff, zip(map(int, row), map(int, row.values()))))
            else:
                row = tuple(map(int, row))
                widths.add(len(row))
                row = _nonzeros(row)
            sparse.append(tuple(map(pairs.setdefault, row, row)))
        if len(widths) > 1:
            raise _Misfit("ragged matrix")
        width = widths.pop() if widths else cols
        if width is None:
            raise _Misfit("cols required for sparse rows" if sparse
                          else "cols required for a matrix with no rows")
        if cols not in (None, width) or not all(map(range(width).__contains__, keys)):
            raise _Misfit("cols mismatch")
        self.rows = len(sparse)
        self.cols = width
        self.sparse = tuple(sparse)

    @staticmethod
    def _of(sparse, cols):
        """Trusted constructor: ``sparse`` is already a tuple of sparse rows
        (``(col, coeff)`` pairs, columns increasing and below ``cols``, each
        ``coeff`` a nonzero ``int``); nothing is converted or checked."""
        m = object.__new__(Mat)
        m.rows = len(sparse)
        m.cols = cols
        m.sparse = sparse
        return m

    @staticmethod
    def identity(n):
        return Mat._of(tuple(((i, 1),) for i in range(n)), n)

    @staticmethod
    def zeros(r, c):
        return Mat._of(((),) * r, c)

    @staticmethod
    def row_vector(v):
        return Mat([list(v)], cols=len(v))

    @property
    def data(self):
        """The dense rows, as a tuple of tuples: a view for output."""
        return tuple(_dense(row, self.cols) for row in self.sparse)

    def row(self, i):
        """Row ``i`` as a dense tuple."""
        return _dense(self.sparse[i], self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        orows = other.sparse
        products = dict.fromkeys(self.sparse)  # each distinct row once
        for row in products:
            products[row] = _combine(row, orows)
        return Mat._of(tuple(map(products.__getitem__, self.sparse)), other.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._of(tuple(map(_add_rows, self.sparse, other.sparse)), self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._of(tuple(map(_add_rows, self.sparse, other.sparse, itertools.repeat(-1))),
                       self.cols)

    def __neg__(self):
        return Mat._of(tuple(tuple((j, -a) for j, a in row) for row in self.sparse), self.cols)

    def scale(self, k):
        if type(k) is not int:  # a bool or another number: convert as Mat(...) does
            return Mat([{j: k * a for j, a in row} for row in self.sparse], cols=self.cols)
        if not k:
            return Mat.zeros(self.rows, self.cols)
        return Mat._of(tuple(tuple((j, k * a) for j, a in row) for row in self.sparse),
                       self.cols)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.cols == other.cols and self.sparse == other.sparse

    def __hash__(self):
        return hash((self.cols, self.sparse))

    def __repr__(self):
        return f"Mat({[list(r) for r in self.data]!r}, cols={self.cols})"

    def det(self):
        """Determinant by the fraction-free Bareiss algorithm.

        >>> Mat([[2, 0], [0, 3]]).det()
        6
        >>> Mat([], cols=0).det()
        1
        """
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(_dense(row, n)) for row in self.sparse]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _nonzeros(row):
    """The sparse row of a dense tuple of ints."""
    return tuple(itertools.compress(enumerate(row), row))


def _dense(row, width):
    """The sparse ``row`` as a dense tuple of ``width`` ints."""
    out = [0] * width
    for j, a in row:
        out[j] = a
    return tuple(out)


def _add_rows(r1, r2, sign=1):
    """``r1 + sign * r2`` for two sparse rows and a sign of 1 or -1."""
    if not r2:
        return r1
    if sign == -1 and r1 == r2:
        return ()
    acc = dict(r1)
    get = acc.get
    for j, a in r2:
        acc[j] = get(j, 0) + sign * a
    return tuple(sorted(filter(_coeff, acc.items())))


def _combine(row, rows):
    """The sparse ``row`` times the matrix of sparse ``rows`` (Gustavson):
    ``sum(c * rows[j])`` over the entries ``(j, c)`` of ``row``, as a
    sparse row.  A single entry ``(j, 1)`` gives the stored row itself, and
    a ``±1`` multiple adds or subtracts a row without multiplying."""
    if len(row) == 1:
        j, c = row[0]
        if c == 1:
            return rows[j]
        return tuple((k, c * b) for k, b in rows[j])
    acc = {}
    get = acc.get
    for j, c in row:
        if c == 1:
            for k, b in rows[j]:
                acc[k] = get(k, 0) + b
        elif c == -1:
            for k, b in rows[j]:
                acc[k] = get(k, 0) - b
        else:
            for k, b in rows[j]:
                acc[k] = get(k, 0) + c * b
    return tuple(sorted(filter(_coeff, acc.items())))


def _vecmat(x, m):
    """The row vector ``x`` times ``m``, as a tuple of ints.

    Equal to ``(Mat.row_vector(x) @ m).row(0)``, shape error included,
    without building either matrix.

    >>> _vecmat((1, 2), Mat([[1, 0], [3, 1]]))
    (7, 2)
    """
    if len(x) != m.rows:
        raise ValueError(f"shape mismatch 1x{len(x)} @ {m.rows}x{m.cols}")
    out = [0] * m.cols
    for c, row in zip(map(int, x), m.sparse):
        if c:
            for k, b in row:
                out[k] += c * b
    return tuple(out)


def kron(a, b):
    """Kronecker product: entry ``(i * b.rows + k, j * b.cols + l)`` is
    ``a[i][j] * b[k][l]``.

    >>> kron(Mat([[1, 2]]), Mat.identity(2))
    Mat([[1, 0, 2, 0], [0, 1, 0, 2]], cols=4)
    """
    w = b.cols
    return Mat._of(tuple(tuple((j * w + k, x * y) for j, x in ra for k, y in rb)
                         for ra in a.sparse for rb in b.sparse), a.cols * w)


def vstack(a, b):
    if a.cols != b.cols:
        raise ValueError("col mismatch")
    return Mat._of(a.sparse + b.sparse, a.cols)


def _offsets(summands):
    """``{key: (offset, size)}`` and the total size of ordered summands."""
    at, total = {}, 0
    for key, size in summands:
        at[key], total = (total, size), total + size
    return at, total


def _assemble(rows, cols, entries):
    """Block matrix over ordered summands.

    ``rows`` and ``cols`` list the block rows and block columns as
    ``(key, size)`` pairs in order; ``entries`` maps ``(row key, col key)``
    to ``(sign, block)``: a sign of 1 or -1, and a ``Mat`` of the row
    block's size and the column block's width.  A block that does not fit
    raises ValueError.  Missing blocks are zero.

    >>> _assemble([("x", 1), ("y", 2)], [("u", 1), ("v", 2)],
    ...           {("x", "u"): (1, Mat([[5]])), ("y", "v"): (-1, Mat([[1, 2], [0, 4]]))})
    Mat([[5, 0, 0], [0, -1, -2], [0, 0, -4]], cols=3)
    >>> _assemble([("x", 2)], [], {}).sparse
    ((), ())
    >>> _assemble([("x", 1)], [("u", 2)], {("x", "u"): (1, Mat.identity(2))})
    Traceback (most recent call last):
        ...
    ValueError: block ('x', 'u') does not fit 1 x 2
    """
    (row_at, height), (col_at, width) = _offsets(rows), _offsets(cols)
    out = [[] for _ in range(height)]
    # blocks left to right, so that each row is built in column order
    for (rkey, ckey), (sign, block) in sorted(entries.items(), key=lambda e: col_at[e[0][1]]):
        top, h = row_at[rkey]
        left, w = col_at[ckey]
        if (block.rows, block.cols) != (h, w):
            raise ValueError(f"block {(rkey, ckey)} does not fit {h} x {w}")
        for i, row in enumerate(block.sparse, top):
            if row:
                out[i].extend((left + j, sign * a) for j, a in row)
    return Mat._of(tuple(map(tuple, out)), width)


def snf(m, u_cols=None):
    """Smith normal form: returns (S, U, V) with U @ m @ V == S, U and V
    unimodular, and S diagonal with a divisibility chain d1 | d2 | ...

    With ``u_cols``, only the leading ``u_cols`` columns of U (all of them
    when ``u_cols >= m.rows``) are tracked and returned: row operations act
    on each column of U on its own, so these are the same columns as in
    the full U.  ``u_cols=0`` gives a ``rows x 0`` U.

    U and V are part of the result, not just S.  ``FgAbGroup`` factors
    only the residue of its unit-pivot elimination and reads that
    residue's V only through ``reduce``: the representatives of a group
    that is not plain follow the exact sequence of unimodular operations
    made here.  A plain group's representatives, the ring tables
    ``make_ring`` reduces among them, do not read V.

    Step t takes as pivot the first entry of least nonzero magnitude, in
    row-major order, among rows and columns t onwards.  It clears the pivot
    column by row operations and the pivot row by column operations (an
    ``_xgcd`` combination where the pivot does not divide the entry), and
    repeats until both are clear and the pivot divides every entry of the
    rest, adding to the pivot row the first row with an entry it does not
    divide.  Shortcuts that keep that sequence: the search stops at the
    first ``±1``, as nothing is smaller; a ``±1`` pivot divides everything,
    so it skips the divisibility sweep; an addition of the pivot row or
    column touches only its nonzero entries.  Rows and columns before t are
    clear by then, so every scan starts after t, and the pivot column is
    scanned again only after a column combination, the one operation that
    can refill it.

    A matrix already in Smith form (zero off the diagonal, positive
    diagonal entries each dividing the next, then zeros; zero and empty
    matrices included) is returned at once, with U the identity at the
    tracked width and V the identity.  That is what the steps return on
    it: each pivot is the next diagonal entry, the first entry of least
    magnitude, with nothing to clear or sweep and no sign to flip.

    >>> m = Mat([[2, 0, 0], [0, 6, 0]])
    >>> s, u, v = snf(m, 1)
    >>> s == m, u, v == Mat.identity(3)
    (True, Mat([[1], [0]], cols=1), True)
    >>> _diagonal(snf(Mat([[2, 0], [0, 3]]))[0], 2)
    (1, 6)
    >>> s2, u2, v2 = snf(Mat([[2, 4], [6, 8]]))
    >>> _diagonal(s2, 2)
    (2, 4)
    >>> (u2 @ Mat([[2, 4], [6, 8]]) @ v2) == s2
    True
    >>> snf(Mat([[2, 4], [6, 8]]), 1)[1] == Mat([row[:1] for row in u2.data])
    True

    The steps work on dense copies of the rows, read back sparse on exit.
    """
    r, c = m.rows, m.cols
    width = r if u_cols is None else min(u_cols, r)
    if _in_smith_form(m):
        return m, vstack(Mat.identity(width), Mat.zeros(r - width, width)), Mat.identity(c)
    a = [list(_dense(row, c)) for row in m.sparse]
    u = [[int(i == j) for j in range(width)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    with_u = (a, u) if width else (a,)

    def row_combine(i1, i2, x, y, z, w):
        # rows (i1, i2) <- (x*row_i1 + y*row_i2, z*row_i1 + w*row_i2)
        for arr in with_u:
            r1, r2 = arr[i1], arr[i2]
            for j in range(len(r1)):
                r1[j], r2[j] = x * r1[j] + y * r2[j], z * r1[j] + w * r2[j]

    def col_combine(j1, j2, x, y, z, w):
        for arr in (a, v):
            for row in arr:
                row[j1], row[j2] = x * row[j1] + y * row[j2], z * row[j1] + w * row[j2]

    live = list(range(r))  # ascending; holds every row from t on that is not zero
    for t in range(min(r, c)):
        # A zero row stays zero: it has no entry in the pivot column, the
        # sweep adds only to the pivot row, and only the pivot swap moves it.
        live = [i for i in live if any(a[i])]
        best = _least_entry(a, live)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[bi], a[t] = a[t], a[bi]
            u[bi], u[t] = u[t], u[bi]
        if bj != t:
            for arr in (a, v):
                for row in arr:
                    row[bj], row[t] = row[t], row[bj]
        if live[0] == t:
            del live[0]
        while True:
            # Clear the pivot column; an operation on row i leaves the
            # entries below it alone, so the rows to visit are known up front.
            adds = None  # (array, pivot row, its nonzero positions)
            for i in [i for i in live if a[i][t]]:
                p, q = a[t][t], a[i][t]
                if q % p:
                    g, x, y = _xgcd(p, q)
                    row_combine(t, i, x, y, -(q // g), p // g)
                    adds = None
                    continue
                if adds is None:
                    adds = [(arr, arr[t], [j for j, e in enumerate(arr[t]) if e])
                            for arr in with_u]
                k = -(q // p)
                for arr, src, support in adds:
                    dst = arr[i]
                    for j in support:
                        dst[j] += k * src[j]
            # Clear the pivot row; only a combination refills the column.
            adds, refilled = None, False  # (array, rows with a pivot-column entry)
            row = a[t]
            for j in [j for j in range(t + 1, c) if row[j]]:
                p, q = row[t], row[j]
                if q % p:
                    g, x, y = _xgcd(p, q)
                    col_combine(t, j, x, y, -(q // g), p // g)
                    adds, refilled = None, True
                    continue
                if adds is None:
                    adds = [(arr, [i for i, e in enumerate(arr) if e[t]]) for arr in (a, v)]
                k = -(q // p)
                for arr, support in adds:
                    for i in support:
                        e = arr[i]
                        e[j] += k * e[t]
            if refilled and any(a[i][t] for i in live):
                continue
            p = row[t]
            if p == 1 or p == -1:
                break
            # Divisibility sweep: the pivot must divide the rest of the block.
            offender = next((i for i in live if any(map(p.__rmod__, a[i]))), None)
            if offender is None:
                break
            for arr in with_u:
                dst, src = arr[t], arr[offender]
                for j in range(len(dst)):
                    dst[j] += src[j]
    for i in range(min(r, c)):
        if a[i][i] < 0:
            for arr in with_u:
                arr[i] = [-x for x in arr[i]]
    # S is diagonal now: its rows are read off the diagonal alone
    s = tuple(((i, a[i][i]),) if i < c and a[i][i] else () for i in range(r))
    return (Mat._of(s, c), Mat._of(tuple(map(_nonzeros, u)), width),
            Mat._of(tuple(map(_nonzeros, v)), c))


def _in_smith_form(m):
    """Whether ``m`` is its own Smith form: each row is zero or has one
    nonzero entry, on the diagonal, and the diagonal is positive entries,
    each dividing the next, then zeros.

    >>> [_in_smith_form(Mat(d)) for d in ([[1, 0], [0, 2]], [[2, 0], [0, 3]], [[0, 0], [0, 2]])]
    [True, False, False]
    """
    prev = 1
    for i, row in enumerate(m.sparse):
        if not row:
            prev = 0
            continue
        if not prev or len(row) != 1:
            return False
        j, d = row[0]
        if j != i or d <= 0 or d % prev:
            return False
        prev = d
    return True


def _diagonal(s, n):
    """The first ``n`` diagonal entries of ``s``, a matrix in Smith form,
    zero past its last row."""
    diag = [0] * n
    for i, row in enumerate(s.sparse[:n]):
        if row:
            diag[i] = row[0][1]
    return tuple(diag)


def _least_entry(a, live):
    """The pivot of a step of ``snf``: the position of the first entry of
    least nonzero magnitude, in row-major order, in the rows of ``a`` that
    ``live`` lists in ascending order, or None if they are all zero.  The
    entries of these rows before the step's column are zero."""
    best, least = None, 0
    for i in live:
        small = min(map(abs, filter(None, a[i])), default=0)
        if small and (not least or small < least):
            best, least = i, small
            if small == 1:  # nothing is smaller
                break
    if best is None:
        return None
    row = a[best]
    return best, min(row.index(e) for e in (least, -least) if e in row)


def row_kernel(m, keep=None):
    """Basis (as rows) of the lattice {v in Z^rows : v @ m == 0}, each row
    cut to its leading ``keep`` coordinates (all of them by default): the
    ``kernel`` of a ``_LeftSolver`` of ``m``.

    >>> row_kernel(Mat([[2], [1]])).rows
    1
    >>> tuple(row_kernel(Mat([[2], [1]])).data[0]) in {(1, -2), (-1, 2)}
    True
    >>> row_kernel(Mat([[2], [1]]), 1).data in {((1,),), ((-1,),)}
    True
    """
    return _LeftSolver(m, keep).kernel()


class _LeftSolver:
    """The row lattice of ``m``, factored once: integer solutions x of
    x @ m == y and the row kernel of ``m``, each row cut to its leading
    ``keep`` coordinates (all of them by default).

    ``m`` is factored by the first ``kernel``, or the first ``solve`` that
    has a row, by one ``snf`` that tracks only the ``keep`` columns of U
    that the rows read, and every later call reuses that factorization."""

    __slots__ = ("m", "keep", "_factors")

    def __init__(self, m, keep=None):
        self.m = m
        self.keep = m.rows if keep is None else keep
        self._factors = None

    def _factored(self):
        """``(units, free, torsion, U, V)`` of ``m``'s Smith form, where
        the diagonal is ``units`` ones, then ``torsion``, then zeros from
        index ``free`` on (the divisibility chain)."""
        if self._factors is None:
            m = self.m
            s, u, v = snf(m, self.keep)
            diag = _diagonal(s, min(m.rows, m.cols))
            units, free = diag.count(1), len(diag) - diag.count(0)
            self._factors = units, free, diag[units:free], u, v
        return self._factors

    def kernel(self):
        """Basis (as rows) of {x : x @ m == 0}: the rows of U past the
        rank."""
        _, free, _, u, _ = self._factored()
        return Mat._of(u.sparse[free:], u.cols)

    def solve(self, ys):
        """The solutions of the rows y of the ``Mat`` ``ys`` that lie in the
        row lattice of m, as one ``Mat`` in the order of ``ys``, and the
        list of the indices of the rows outside it."""
        m = self.m
        width = min(self.keep, m.rows)
        if not ys.rows:
            return Mat.zeros(0, width), []
        units, free, torsion, u, v = self._factored()
        ws, bad = [], []
        for i, z in enumerate((ys @ v).sparse):
            w = []
            for j, a in z:
                if j >= units:
                    if j >= free or a % torsion[j - units]:
                        bad.append(i)
                        break
                    a //= torsion[j - units]
                w.append((j, a))
            else:
                ws.append(tuple(w))
        return Mat._of(tuple(ws), m.rows) @ u, bad


def solve_left(m, ys, keep=None):
    """Integer solutions x of x @ m == y, one for each row y of ys, each cut
    to its leading ``keep`` coordinates (all of them by default).

    ``m`` is factored by a single ``snf`` call shared by all the rows (none
    when ys is empty).  ``ys`` is a ``Mat`` or rows that ``Mat(...)`` reads.
    The result lists, in the order of ys, one solution tuple per row, or
    None for a row outside the row lattice of m.

    >>> solve_left(Mat([[2, 0], [0, 3]]), [(4, 6), (1, 0), (0, -3)])
    [(2, 2), None, (0, -1)]
    >>> solve_left(Mat([[2, 0], [0, 3]]), [(4, 6), (1, 0)], 1)
    [(2,), None]
    >>> solve_left(Mat([[2]]), [(3,)])
    [None]
    >>> solve_left(Mat([[2]]), [])
    []
    """
    if not isinstance(ys, Mat):
        ys = Mat(ys, cols=m.cols)
    sols, bad = _LeftSolver(m, keep).solve(ys)
    found, bad = iter(sols.sparse), set(bad)
    return [None if i in bad else _dense(next(found), sols.cols) for i in range(ys.rows)]


def _distinct_rows(rows, cols):
    """The rows ``{col: coeff}`` over the increasing columns ``cols``, in
    order, as a ``Mat`` on those columns that has each distinct row once."""
    at = {j: c for c, j in enumerate(cols)}
    return Mat._of(tuple(dict.fromkeys(tuple((at[j], row[j]) for j in sorted(row))
                                       for row in rows)), len(cols))


def _eliminate(rows):
    """Unit-pivot elimination on sparse rows, ``Mat``'s or ``{col: coeff}``
    (Kaczynski-Mrozek-Slusarek): each unit pivot contributes a divisor 1
    and leaves the Schur complement, which stays integral.  The row taken
    next is a shortest live row, its pivot the unit entry in its sparsest
    column, so fill-in stays small (Markowitz).

    Returns ``(steps, live)``.  ``steps`` lists the pivots in the order
    taken, each as ``(column, sign, rest)``: the pivot row was then ``sign``
    (1 or -1) at the column plus ``rest``, zero at every earlier pivot
    column.  ``live`` lists the rows left without a unit pivot, each
    nonzero and zero at every pivot column; both are ``{col: coeff}``.
    The rows of the steps and ``live`` span the lattice of ``rows``.

    >>> _eliminate([{0: 2, 1: 1}, {0: 4, 1: 1}])
    ([(1, 1, {0: 2})], [{0: 2}])
    """
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    where = defaultdict(set)  # column -> live rows with an entry in it
    for i, row in live.items():
        for j in row:
            where[j].add(i)
    queue = [(len(row), i) for i, row in live.items()]
    heapify(queue)
    steps = []
    while queue:
        size, i = heappop(queue)
        row = live.get(i)
        if row is None or len(row) != size:
            continue  # eliminated, or queued again at its new length
        pivot = min((j for j, a in row.items() if a in (1, -1)),
                    key=lambda j: len(where[j]), default=None)
        if pivot is None:
            continue  # left to the residue unless an elimination changes it
        del live[i]
        for j in row:
            where[j].discard(i)
        sign = row.pop(pivot)
        steps.append((pivot, sign, row))
        for k in where.pop(pivot):
            other = live[k]
            factor = other.pop(pivot) * sign
            for j, a in row.items():
                b = other.get(j, 0) - factor * a
                if b:
                    other[j] = b
                    where[j].add(k)
                else:
                    del other[j]
                    where[j].discard(k)
            if other:
                heappush(queue, (len(other), k))
            else:
                del live[k]
    return steps, list(live.values())


def _elementary_divisors(rows, pivots=None):
    """The nonzero elementary divisors, in increasing order, of the matrix
    of sparse ``rows``; the column of each unit pivot is added to the set
    ``pivots`` when one is given.

    ``_eliminate`` takes the unit pivots; ``snf`` factors what is left
    without a unit pivot (Dumas-Saunders-Villard), on the columns it
    touches and with its repeated rows dropped: only its divisors are read.

    >>> _elementary_divisors([{0: 1, 1: 1}, {0: 1, 1: -1}])
    (1, 2)
    """
    steps, live = _eliminate(rows)
    if pivots is not None:
        pivots.update(p for p, _, _ in steps)
    residue = ()
    if live:
        s = snf(_distinct_rows(live, sorted({j for row in live for j in row})), 0)[0]
        residue = tuple(d for d in _diagonal(s, min(s.rows, s.cols)) if d)
    return (1,) * len(steps) + residue


def _substitution(n, kept, steps):
    """Each of ``n`` generators written in the ``kept`` ones, after the
    ``steps`` of ``_eliminate``, as an ``n x len(kept)`` matrix (None when
    there are no steps).  Row ``kept[c]`` is the unit vector ``e_c``.  A
    pivot ``p`` whose row was ``sign x_p + rest`` is ``-sign rest``, with the
    later pivots in ``rest`` already written so.  Each row differs from
    its generator by a relation.

    >>> _substitution(3, (0, 2), [(1, -1, {0: 2, 2: 1})]).data
    ((1, 0), (2, 1), (0, 1))
    """
    if not steps:
        return None
    at = {j: c for c, j in enumerate(kept)}
    sub = {}
    for p, sign, rest in reversed(steps):
        acc = {}
        for j, a in rest.items():
            a *= -sign
            if j in sub:
                for c, b in sub[j].items():
                    acc[c] = acc.get(c, 0) + a * b
            else:
                acc[at[j]] = acc.get(at[j], 0) + a
        sub[p] = acc
    return Mat._of(tuple(((at[j], 1),) if j in at
                         else tuple(sorted(filter(_coeff, sub[j].items()))) for j in range(n)),
                   len(kept))


# Below this many cells (distinct nonzero relation rows times generators),
# ``snf`` takes the unit pivots of a group's relations faster than sparse
# rows can be built and eliminated; measured on the groups that the
# benchmark workloads build, where the two cross between 342 and 448.
_ELIMINATION_CELLS = 400


class FgAbGroup:
    """A finitely generated abelian group Z^n_gens / (row lattice of relations).

    ``relations`` is the lattice's distinct nonzero rows: the rows given,
    in the order they first occur, without zeros or repeats.  In a matrix
    of at least ``_ELIMINATION_CELLS`` cells, unit pivots are eliminated
    on sparse rows by ``_eliminate`` (each eliminated generator becomes a
    substitution in the kept ones); and only the residue goes to ``snf``.
    The invariant factors (each >= 2, each dividing the next) and the free
    rank are computed once and cached; equality compares exactly these.

    >>> g = group(2, [[2, 0], [0, 3]])
    >>> g.invariant_factors, g.free_rank
    ((6,), 0)
    >>> g == group(1, [[6]])
    True
    >>> g.order()
    6

    ``str`` puts the free part first, ``repr`` the torsion first:

    >>> h = group(3, [[2, 0, 0], [0, 0, 0]])
    >>> str(h), repr(h)
    ('Z^2 + Z/2', 'Z/2 + Z^2')
    """

    __slots__ = ("n_gens", "relations", "invariant_factors", "free_rank",
                 "_plain", "_to", "_v", "_kept", "_back", "_diag", "_units", "_free")

    def __init__(self, n_gens, relations):
        if relations.cols != n_gens:
            raise ValueError("relations width != n_gens")
        self.n_gens = n_gens
        self.relations = rows = Mat._of(
            tuple(row for row in dict.fromkeys(relations.sparse) if row), n_gens)
        self._plain, self._to, self._v, self._kept, self._back = True, None, None, None, None
        if _in_smith_form(rows):
            self._read_diagonal(_diagonal(rows, n_gens))
            return
        steps, residue, kept = [], rows, tuple(range(n_gens))
        if (rows.rows * n_gens >= _ELIMINATION_CELLS
                and any(a == 1 or a == -1 for row in rows.sparse for _, a in row)):
            steps, live = _eliminate(rows.sparse)
            pivots = {p for p, _, _ in steps}
            kept = tuple(j for j in range(n_gens) if j not in pivots)
            residue = _distinct_rows(live, kept)
        k = len(kept)
        diag, v = (0,) * k, None
        if residue.rows:
            s, _, v = snf(residue, 0)
            diag = _diagonal(s, k)
            if v == Mat.identity(k):
                v = None
        self._read_diagonal((1,) * len(steps) + diag)
        # Plain: every relation is zero read in generator coordinates, as
        # when U relations = S outright (no steps, V the identity).
        if (v is None and not steps) or self._first_nonzero_row(rows) is None:
            return
        sub = _substitution(n_gens, kept, steps)
        self._plain, self._kept, self._v = False, kept, v
        self._to = v if sub is None else sub if v is None else sub @ v
        self._read_diagonal(diag)

    def _read_diagonal(self, diag):
        """Record ``diag``, the Smith diagonal of the coordinates that
        membership reads.  The divisibility chain orders it: units, then
        the invariant factors, then zeros from index ``_free`` on."""
        self._diag = diag
        self.free_rank = diag.count(0)
        self._units = diag.count(1)
        self._free = len(diag) - self.free_rank
        self.invariant_factors = diag[self._units:self._free]

    def reduce(self, x):
        """Canonical representative of the coset of x (a length-n tuple).
        It differs from ``x`` by a relation.

        A plain group reads ``x`` as Smith coordinates and reduces it
        modulo the diagonal.  Otherwise ``x _to`` (the substitutions, then
        the residue's basis change ``V``) is reduced and mapped back by
        ``_back_map``.

        >>> group(2, [[4, 0], [0, 2]]).reduce((1, 3))
        (1, 1)
        """
        if len(x) != self.n_gens:
            raise ValueError("element length mismatch")
        row = _nonzeros(tuple(map(int, x)))
        if self._plain:
            return _dense(self._residue(row), self.n_gens)
        return self._reduce_rows(Mat._of((row,), self.n_gens)).row(0)

    def _residue(self, row):
        """The sparse ``row`` of Smith coordinates modulo the diagonal:
        zero on the units, each torsion entry modulo its factor, the free
        entries as they are."""
        u, f, diag = self._units, self._free, self._diag
        out = []
        for j, a in row:
            if j >= f:
                out.append((j, a))
            elif j >= u and a % diag[j]:
                out.append((j, a % diag[j]))
        return tuple(out)

    def _back_map(self):
        """From Smith coordinates back to generators: the inverse of the
        residue's ``V`` (the one solution of ``x V = I``, as ``V`` is
        unimodular), its columns placed at the kept generators (zero at
        the eliminated ones).  Built where it is first needed, and kept."""
        if self._back is None:
            kept = self._kept
            inv = Mat.identity(len(kept)).sparse
            if self._v is not None:
                inv = map(_nonzeros, solve_left(self._v, Mat.identity(len(kept))))
            self._back = Mat._of(tuple(tuple((kept[c], a) for c, a in row) for row in inv),
                                 self.n_gens)
        return self._back

    def _reduce_rows(self, m):
        """``reduce`` of every row of ``m`` (``n_gens`` wide), as a ``Mat``:
        one product into Smith coordinates and one back (none for a plain
        group), each distinct row once."""
        if self._plain:
            return Mat._of(tuple(map(self._residue, m.sparse)), self.n_gens)
        rows = m @ self._to
        return Mat._of(tuple(map(self._residue, rows.sparse)), rows.cols) @ self._back_map()

    def _first_nonzero_row(self, m):
        """Index of the first row of ``m`` (``n_gens`` wide) that is not zero
        in the group, or None.  Each distinct row is taken to Smith
        coordinates once (not at all in a plain group), up to the first
        that is not zero; a repeat of a row already tested comes after it,
        so it cannot be first."""
        if m.cols != self.n_gens:
            raise ValueError(f"shape mismatch {m.rows}x{m.cols} @ {self.n_gens}x{self.n_gens}")
        tested = set()
        for i, row in enumerate(m.sparse):
            if row in tested:
                continue
            tested.add(row)
            if self._nonzero(row):
                return i
        return None

    def _nonzero(self, row):
        """Whether the sparse ``row`` (generator coordinates) is not zero in
        the group: in Smith coordinates (``x _to``, or ``x`` in a plain
        group) it has a free entry, or a factor's entry it does not divide."""
        if not self._plain:
            row = _combine(row, self._to.sparse)
        u, f, diag = self._units, self._free, self._diag
        for j, a in row:
            if j >= f or (j >= u and a % diag[j]):
                return True
        return False

    def is_zero(self, x):
        if len(x) != self.n_gens:
            raise ValueError("element length mismatch")
        return not self._nonzero(_nonzeros(tuple(map(int, x))))

    def same_element(self, x, y):
        if len(x) != len(y):
            raise ValueError("element length mismatch")
        return self.is_zero(tuple(map(sub, map(int, x), map(int, y))))

    def is_finite(self):
        return self.free_rank == 0

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def order(self):
        if not self.is_finite():
            raise ValueError("infinite group")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def elements(self):
        """All elements of a finite group, as coefficient vectors (sorted).

        >>> sorted(group(1, [[4]]).elements())
        [(0,), (1,), (2,), (3,)]
        """
        if not self.is_finite():
            raise ValueError("infinite group")
        # each reduced Smith coordinate vector, mapped back: a representative
        ys = itertools.product(*map(range, self._diag))
        if self._plain:
            return sorted(ys)
        back = self._back_map()
        return sorted(_vecmat(y, back) for y in ys)

    def __eq__(self, other):
        return (isinstance(other, FgAbGroup)
                and self.invariant_factors == other.invariant_factors
                and self.free_rank == other.free_rank)

    def __hash__(self):
        return hash((self.invariant_factors, self.free_rank))

    def _show(self, free_first):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank:
            parts.insert(0 if free_first else len(parts),
                         f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self._show(True)

    def __repr__(self):
        return self._show(False)


def group(n_gens, relations):
    """Build an FgAbGroup from a generator count and relation rows.

    >>> group(2, []).free_rank
    2
    """
    rel = relations if isinstance(relations, Mat) else Mat(relations, cols=n_gens)
    return FgAbGroup(n_gens, rel)


def free_group(n):
    return group(n, Mat([], cols=n))


class GroupHom:
    """Homomorphism between presented groups, given by a matrix on generators.

    Well-definedness (every source relation lands in the target's relation
    lattice) is checked at construction.

    >>> z = free_group(1); z2 = group(1, [[2]])
    >>> f = hom(z, z2, [[1]])
    >>> f.apply((3,))
    (1,)
    >>> hom(z2, z, [[1]])
    Traceback (most recent call last):
        ...
    ValueError: not a well-defined homomorphism: relation (2,) maps outside the target relation lattice
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, _checked=False):
        if matrix.rows != source.n_gens or matrix.cols != target.n_gens:
            raise ValueError("hom matrix shape mismatch")
        if not _checked:
            bad = target._first_nonzero_row(source.relations @ matrix)
            if bad is not None:
                raise ValueError(
                    "not a well-defined homomorphism: relation"
                    f" {source.relations.row(bad)}"
                    " maps outside the target relation lattice")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, x):
        return self.target.reduce(_vecmat(x, self.matrix))

    def apply_rows(self, xs):
        """``apply`` of every row of ``xs``, as a ``Mat``; the identity
        gives the reduced images of the generators."""
        return self.target._reduce_rows(xs @ self.matrix)

    def then(self, other):
        """The composite 'self followed by other'."""
        if other.source.n_gens != self.target.n_gens:
            raise ValueError("composition mismatch")
        return GroupHom(self.source, other.target, self.matrix @ other.matrix,
                        _checked=True)

    def __add__(self, other):
        return GroupHom(self.source, self.target, self.matrix + other.matrix,
                        _checked=True)

    def __sub__(self, other):
        return GroupHom(self.source, self.target, self.matrix - other.matrix,
                        _checked=True)

    def equal(self, other):
        """Equality as maps into the common target (matrices may differ)."""
        if self.matrix.rows != other.matrix.rows:
            return False
        return self.target._first_nonzero_row(self.matrix - other.matrix) is None

    def is_zero_map(self):
        return self.target._first_nonzero_row(self.matrix) is None

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


def hom(source, target, rows):
    m = rows if isinstance(rows, Mat) else Mat(rows, cols=target.n_gens)
    return GroupHom(source, target, m)


def identity_hom(g):
    return GroupHom(g, g, Mat.identity(g.n_gens), _checked=True)


def kernel(f):
    """Kernel subgroup with its inclusion: returns (K, incl: K -> source).

    >>> z = free_group(1)
    >>> k, incl = kernel(hom(z, group(1, [[2]]), [[1]]))
    >>> k == z
    True
    >>> incl.apply((1,)) in {(2,), (-2,)}
    True
    """
    src = f.source
    # Drop rows that are zero in the source (no information).
    sub = Mat._of(tuple(filter(src._nonzero, _kernel_lattice(f).sparse)), src.n_gens)
    if sub.rows == 0:
        k = group(0, Mat([], cols=0))
    else:
        # generated by the rows of sub, related by {c : c @ sub in lattice(src relations)}
        k = FgAbGroup(sub.rows, row_kernel(vstack(sub, src.relations), sub.rows))
    return k, GroupHom(k, src, sub, _checked=True)


def _kernel_lattice(f):
    """Rows spanning {x in Z^n_src : f(x) == 0 in target}: the row kernel
    of ``f.matrix`` stacked on the target relations, cut to the source
    coordinates.  The span holds the source relations, as ``f`` is well
    defined, so none is appended."""
    return row_kernel(vstack(f.matrix, f.target.relations), f.source.n_gens)


def _same_presentation(g, h):
    """Whether ``g`` and ``h`` are one presentation: the same object, or
    the same relations (hence as many generators)."""
    return g is h or g.relations == h.relations


class ExactnessReport(NamedTuple):
    """Result of an exactness check; truthy iff exact, with a certificate
    string describing the first failure otherwise."""

    ok: bool
    detail: str

    def __bool__(self):
        return self.ok


def is_exact(seq):
    """Exactness of a composable sequence of GroupHoms at every inner joint.

    At a joint ``a`` then ``b``, a zero composite puts every row of
    ``a.matrix`` in the kernel lattice of ``b``, whose span holds the
    relations of the middle group: the image lies in the kernel.  What is
    left is the other direction, every kernel row in the image lattice: a
    row lies there iff it is zero in ``Z^n / image``, which one group on
    the image rows tests, one ``snf`` that tracks no column of U (none
    when the kernel has no row).

    ``a.target`` and ``b.source`` must be one presentation, the same
    object or equal relations, since each direction reads the middle
    relations off one side; a joint whose sides have as many generators
    but different relations raises SpecError.

    A joint whose middle is trivial is exact and is not tested once it is
    composable.  The image lattice holds the middle relations, which span
    every row, so the kernel lies in it.  The composite is zero because
    ``b`` is well defined, so it sends every row, a sum of relations of
    its trivial source, into the relation lattice of its target.  Every
    ``GroupHom`` is well defined: it is checked at construction or derived
    from checked homs.  A skipped joint could not fail, so the report
    names the same first failure.

    >>> z = free_group(1); z2 = group(1, [[2]])
    >>> bool(is_exact([hom(z, z, [[2]]), hom(z, z2, [[1]])]))
    True
    >>> bool(is_exact([hom(z, z, [[4]]), hom(z, z2, [[1]])]))
    False
    >>> zero = group(1, [[1]])
    >>> bool(is_exact([hom(z, zero, [[3]]), hom(zero, z2, [[0]])]))
    True
    """
    for n, (a, b) in enumerate(zip(seq, seq[1:]), 1):
        if a.target.n_gens != b.source.n_gens:
            return ExactnessReport(False, "sequence is not composable")
        mid = a.target
        if not _same_presentation(mid, b.source):
            raise SpecError(f"joint {n}: the maps meet in two different "
                            "presentations of the middle group")
        if mid.is_trivial():
            continue
        comp = a.then(b)
        if not comp.is_zero_map():
            return ExactnessReport(False, "composite is nonzero")
        ker_rows = _kernel_lattice(b)
        if not ker_rows.rows:
            continue
        image = FgAbGroup(mid.n_gens, vstack(a.matrix, mid.relations))
        bad = image._first_nonzero_row(ker_rows)
        if bad is not None:
            return ExactnessReport(
                False, f"kernel element {ker_rows.row(bad)} is not in the image")
    return ExactnessReport(True, "exact at every joint")


def inverse(f):
    """Two-sided inverse of an isomorphism, or None: the lift of the
    identity of the target through ``f``.  Once ``g.then(f)`` is the
    identity, ``f.then(g)`` is the identity exactly when ``f`` is
    injective, which ``lift_through`` checks.

    >>> z = free_group(1)
    >>> inverse(hom(z, z, [[-1]])).matrix.data
    ((-1,),)
    >>> inverse(hom(z, z, [[2]])) is None
    True
    """
    try:
        return lift_through(f, identity_hom(f.target))
    except ValueError:
        return None


def lift_through(incl, h):
    """Given incl: K -> M with trivial kernel and h: A -> M landing in the
    image of incl, return the unique g: A -> K with g.then(incl) == h.

    One ``_LeftSolver`` of ``incl.matrix`` stacked on the relations of M
    gives both the lift, cut to the coordinates of K, and the kernel
    lattice of ``incl``, which must be zero in K.

    >>> z = free_group(1)
    >>> two = hom(z, z, [[2]])
    >>> lift_through(two, hom(z, z, [[6]])).matrix.data
    ((3,),)
    """
    k, m = incl.source, incl.target
    solver = _LeftSolver(vstack(incl.matrix, m.relations), k.n_gens)
    mat, bad = solver.solve(h.matrix)
    if bad:
        raise ValueError("map does not factor through the inclusion")
    g = GroupHom(h.source, k, mat)
    if not g.then(incl).equal(h):
        raise ValueError("factorization check failed")
    if k._first_nonzero_row(solver.kernel()) is not None:
        raise ValueError("inclusion is not injective; lift not unique")
    return g


def direct_sum(g, h):
    """Direct sum with structure maps: (G+H, incl_g, incl_h, proj_g, proj_h).

    >>> s, i1, i2, p1, p2 = direct_sum(free_group(1), group(1, [[2]]))
    >>> s.free_rank, s.invariant_factors
    (1, (2,))
    """
    m, n = g.n_gens, h.n_gens
    unit = Mat.identity(m + n).sparse
    s = group(m + n, Mat._of(g.relations.sparse
                             + tuple(tuple((m + j, a) for j, a in r) for r in h.relations.sparse),
                             m + n))
    i1 = GroupHom(g, s, Mat._of(unit[:m], m + n), _checked=True)
    i2 = GroupHom(h, s, Mat._of(unit[m:], m + n), _checked=True)
    p1 = GroupHom(s, g, vstack(Mat.identity(m), Mat.zeros(n, m)), _checked=True)
    p2 = GroupHom(s, h, vstack(Mat.zeros(m, n), Mat.identity(n)), _checked=True)
    return s, i1, i2, p1, p2


def balanced_tensor(g, h, slides):
    """The tensor product over Z of two presented groups modulo slides,
    ``G (x) H / (l x (x) y - x (x) r y)``, as one group on generator pairs
    in ``kron``'s coordinates.

    It is presented by each relation of ``g`` tensored with each generator
    of ``h``, then each generator of ``g`` with each relation of ``h``,
    then one block ``kron(l, I) - kron(I, r)`` for each pair ``(l, r)`` of
    endomorphism matrices of ``g`` and ``h`` in ``slides``, in order; its
    ``relations`` are the distinct nonzero rows of that stack.

    >>> t = balanced_tensor(group(1, [[4]]), group(1, [[6]]), ())
    >>> t.relations.data, t == group(1, [[2]])
    (((4,), (6,)), True)
    >>> z = free_group(1)
    >>> balanced_tensor(z, z, [(Mat([[3]]), Mat([[1]]))]).relations.data
    ((2,),)
    """
    ident_g, ident_h = Mat.identity(g.n_gens), Mat.identity(h.n_gens)
    rows = kron(g.relations, ident_h).sparse + kron(ident_g, h.relations).sparse
    for left, right in slides:
        rows += (kron(left, ident_h) - kron(ident_g, right)).sparse
    return group(g.n_gens * h.n_gens, Mat._of(rows, g.n_gens * h.n_gens))
