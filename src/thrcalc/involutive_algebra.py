"""Commutative rings with involution, affine monoids, and exact
weight-fiber enumeration.

Rings are finitely generated abelian groups ([`fgab.FgAbGroup`]) equipped
with a commutative multiplication table on generators, a unit vector and an
additive involution.  Every axiom (well-definedness over the additive
relations, commutativity, associativity, unit neutrality, the involution
being a ring map of order two) is checked at construction time and
violations raise :class:`~thrcalc.errors.SpecError` naming the axiom.
Commutativity compares table entries; every other axiom, and each axiom
of a ring map and of Frobenius, is one lattice-membership test: its two
sides are stacked over all its instances (a relation against a
generator, a generator triple or pair, an element), in the order the
message names them, and the first instance whose difference is not zero
in the additive group is the one named.

Affine monoids are finitely generated submonoids of ``Z^n`` carrying an
involution given by an integer matrix of order two.  Fibers of a monoid
homomorphism ``M -> Z^m`` are enumerated exactly: the unit sublattice is
split off, a strictly positive rational functional on the remaining
generators is found by Fourier-Motzkin elimination, and the resulting
bound makes the search finite.  When no such functional exists the fiber
is provably infinite and :class:`~thrcalc.errors.InfeasibleError` is raised
instead of silently truncating.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import InfeasibleError, SpecError
from .fgab import (
    GroupHom,
    Mat,
    _LeftSolver,
    _dense,
    _vecmat,
    group,
    hom,
    identity_hom,
    kron,
    vstack,
)

# ---------------------------------------------------------------------------
# rings with involution
# ---------------------------------------------------------------------------


class InvolutiveRing:
    """A commutative ring on a finitely generated abelian group, with an
    additive involution that is a ring homomorphism of order two.

    Attributes:
        add: the underlying additive group.
        table: ``table[i][j]`` is the coefficient vector of ``g_i * g_j``.
        one: coefficient vector of the multiplicative unit.
        w: the involution, as a group endomorphism of ``add``.
        names: printable generator names (defaulting to ``g0, g1, ...``).
    """

    __slots__ = ("add", "table", "one", "w", "names")

    def __init__(self, add, table, one, w, names):
        self.add = add
        self.table = table
        self.one = one
        self.w = w
        self.names = names

    @property
    def n_gens(self):
        return self.add.n_gens

    def multiplication_by(self, a):
        """Multiplication by the fixed element ``a`` as an additive
        endomorphism of the underlying group: its row ``i`` is ``a g_i``,
        all of them from one product with the table."""
        return hom(self.add, self.add, self.times_generators(Mat([a])))

    def times_generators(self, xs):
        """The reduced products ``x g_0, ..., x g_{n-1}`` for every row
        ``x`` of ``xs``, stacked ``x`` major: the matrices of multiplication
        by the rows of ``xs``, one under the other."""
        return self.add._reduce_rows(_times_generators(xs, _flat(self.table, self.n_gens)))

    def has_trivial_involution(self):
        return self.w.equal(identity_hom(self.add))

    def __repr__(self):
        return f"InvolutiveRing(add={self.add!r}, gens={list(self.names)})"


def _unit_vec(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def make_ring(add, table, one, w_matrix, names=None, where="ring"):
    """Build an :class:`InvolutiveRing`, checking every axiom.

    Args:
        add: additive group.
        table: ``n x n`` array of coefficient vectors for generator products.
        one: coefficient vector of the unit.
        w_matrix: integer matrix of the involution (row ``i`` = image of
            generator ``i``), or None for the identity.
        names: optional generator names.
        where: label used in error messages.

    Raises:
        SpecError: naming the violated axiom.
    """
    n = add.n_gens
    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    names = tuple(names)
    if len(names) != n:
        raise SpecError(f"{where}: {len(names)} generator names for {n} generators")

    table = tuple(tuple(add.reduce(tuple(v)) for v in row) for row in table)
    if len(table) != n or any(len(row) != n for row in table):
        raise SpecError(f"{where}: multiplication table is not {n} x {n}")
    one = add.reduce(tuple(one))

    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise SpecError(
                    f"{where}: multiplication is not commutative at "
                    f"({names[i]}, {names[j]})"
                )

    # One membership test per axiom, its rows in the order the messages name.
    ident = Mat.identity(n)
    flat = _flat(table, n)
    one_row = Mat([one], cols=n)

    # The table defines a map on the free group; it descends to `add` iff
    # every additive relation multiplies to zero against every generator.
    bad = add._first_nonzero_row(_times_generators(add.relations, flat))
    if bad is not None:
        raise SpecError(
            f"{where}: multiplication table does not respect the additive "
            f"relation {add.relations.row(bad // n)} against generator "
            f"{names[bad % n]}"
        )

    bad = add._first_nonzero_row(add._reduce_rows(_times_generators(one_row, flat))
                                 - ident)
    if bad is not None:
        raise SpecError(f"{where}: unit is not neutral on generator {names[bad]}")

    # Row (i n + j) n + k of `triple` is (g_i g_j) g_k; the table is
    # commutative, so g_i (g_j g_k) is the same product as row (j n + k) n + i.
    triple = add._reduce_rows(_times_generators(flat, flat))
    cycle = Mat([{(j * n + k) * n + i: 1} for i in range(n) for j in range(n) for k in range(n)],
                cols=n ** 3)
    bad = add._first_nonzero_row(triple - cycle @ triple)
    if bad is not None:
        i, j, k = bad // (n * n), bad // n % n, bad % n
        raise SpecError(
            f"{where}: multiplication is not associative at "
            f"({names[i]}, {names[j]}, {names[k]})"
        )

    if w_matrix is None:
        w_matrix = Mat.identity(n)
    elif not isinstance(w_matrix, Mat):
        w_matrix = Mat(w_matrix, cols=n)
    if w_matrix.rows != n:
        raise SpecError(f"{where}: involution matrix is not {n} x {n}")
    try:
        w = hom(add, add, w_matrix)
    except ValueError as exc:
        raise SpecError(f"{where}: involution is not additively well defined: {exc}")
    images = w.apply_rows(ident)  # w(g_i)
    bad = add._first_nonzero_row(w.apply_rows(images) - ident)
    if bad is not None:
        raise SpecError(
            f"{where}: involution does not square to the identity on {names[bad]}"
        )
    if add._first_nonzero_row(w.apply_rows(one_row) - one_row) is not None:
        raise SpecError(f"{where}: involution does not fix the unit")
    bad = add._first_nonzero_row(w.apply_rows(flat) - _products(add, flat, images, images))
    if bad is not None:
        raise SpecError(
            f"{where}: involution is not multiplicative at "
            f"({names[bad // n]}, {names[bad % n]})"
        )

    return InvolutiveRing(add, table, one, w, names)


def _flat(table, n):
    """The flattened table: row ``i * n + j`` is ``g_i g_j``, so in
    ``kron``'s tensor coordinates ``(x (x) y) @ _flat(table, n)`` is the
    product of ``x`` and ``y`` before reduction."""
    return Mat([v for row in table for v in row], cols=n)


def _times_generators(xs, flat):
    """``x g_0, ..., x g_{n-1}`` for every row ``x`` of ``xs``, stacked
    ``x`` major, before reduction: the pure tensors ``x (x) g_c`` times the
    flattened table ``flat``."""
    return kron(xs, Mat.identity(flat.cols)) @ flat


def _products(add, flat, xs, ys):
    """The product ``x y`` for every row ``x`` of ``xs`` and ``y`` of ``ys``, in
    ``kron`` order (``x`` major): each pure tensor times the flattened
    table, reduced."""
    return add._reduce_rows(kron(xs, ys) @ flat)


class RingHom(NamedTuple):
    """A checked homomorphism of rings with involution."""

    source: InvolutiveRing
    target: InvolutiveRing
    add_hom: GroupHom


def ring_hom(source, target, rows, where="ring map"):
    """Build a :class:`RingHom` from generator images, checking that it is
    additive, unital, multiplicative and involution-equivariant."""
    try:
        f = hom(source.add, target.add, rows)
    except ValueError as exc:
        raise SpecError(f"{where}: not additively well defined: {exc}")
    add = target.add
    if not add.same_element(f.apply(source.one), target.one):
        raise SpecError(f"{where}: does not send the unit to the unit")
    n = source.n_gens
    ident = Mat.identity(n)
    images = f.apply_rows(ident)  # f(g_i)
    flat = _flat(target.table, target.n_gens)
    bad = add._first_nonzero_row(f.apply_rows(_flat(source.table, n))
                                 - _products(add, flat, images, images))
    if bad is not None:
        raise SpecError(
            f"{where}: not multiplicative at generators ({bad // n}, {bad % n})"
        )
    bad = add._first_nonzero_row(f.apply_rows(source.w.apply_rows(ident))
                                 - target.w.apply_rows(images))
    if bad is not None:
        raise SpecError(
            f"{where}: does not commute with the involutions at generator {bad}"
        )
    return RingHom(source, target, f)


# ---------------------------------------------------------------------------
# ring catalog
# ---------------------------------------------------------------------------


def ring_Z():
    """The integers with trivial involution."""
    add = group(1, [])
    return make_ring(add, [[(1,)]], (1,), None, names=("one",))


def ring_Zmod(n):
    """``Z/n`` with trivial involution."""
    if n <= 0:
        raise SpecError(f"ring_Zmod: modulus must be positive, got {n}")
    add = group(1, [[n]])
    return make_ring(add, [[(1,)]], (1,), None, names=("one",))


def ring_F2():
    return ring_Zmod(2)


def ring_dual_numbers_F2():
    """``F_2[t] / t^2`` with trivial involution, generators ``one, t``."""
    add = group(2, [[2, 0], [0, 2]])
    table = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    return make_ring(add, table, (1, 0), None, names=("one", "t"))


def ring_F4():
    """The field with four elements, generators ``one, x`` with
    ``x**2 = one + x``, trivial involution."""
    add = group(2, [[2, 0], [0, 2]])
    table = [[(1, 0), (0, 1)], [(0, 1), (1, 1)]]
    return make_ring(add, table, (1, 0), None, names=("one", "x"))


def mod2(ring):
    """Reduction of a ring modulo 2, with the induced table and involution."""
    n = ring.add.n_gens
    add2 = group(n, vstack(ring.add.relations, Mat.identity(n).scale(2)))
    return make_ring(
        add2,
        ring.table,
        ring.one,
        ring.w.matrix,
        names=ring.names,
        where="mod2",
    )


def frobenius(ring2):
    """The additive endomorphism ``x -> x**2`` of a ring in which ``2 = 0``.

    Squaring is additive there because cross terms carry a factor of two;
    on a generator expansion it is given by squaring each generator, which
    is the matrix returned here.  On small rings the matrix is additionally
    verified against elementwise squaring.
    """
    add = ring2.add
    n = add.n_gens
    if add._first_nonzero_row(Mat.identity(n).scale(2)) is not None:
        raise SpecError("frobenius: ring does not satisfy 2 = 0")
    rows = [ring2.table[i][i] for i in range(n)]
    phi = hom(add, add, rows)
    if add.is_finite() and add.order() <= 256:
        elements = add.elements()
        xs = Mat(elements, cols=n)
        pure = Mat([[a * b for a in x for b in x] for x in elements], cols=n * n)
        squares = add._reduce_rows(pure @ _flat(ring2.table, n))
        bad = add._first_nonzero_row(phi.apply_rows(xs) - squares)
        if bad is not None:
            raise SpecError(
                f"frobenius: matrix disagrees with squaring at {elements[bad]}"
            )
    return phi


# ---------------------------------------------------------------------------
# affine monoids
# ---------------------------------------------------------------------------


class AffineMonoid:
    """A finitely generated submonoid of ``Z^rank`` with an involution.

    The involution is an integer matrix ``w`` with ``w @ w = I`` that maps
    the monoid into itself; both facts are certified at construction (the
    latter by exhibiting a membership certificate for the image of every
    generator).
    """

    __slots__ = ("rank", "generators", "w", "_searches")

    def __init__(self, generators, w=None, rank=None):
        generators = tuple(tuple(g) for g in generators)
        if rank is None:
            if not generators:
                raise SpecError("affine monoid: rank required when no generators")
            rank = len(generators[0])
        for g in generators:
            if len(g) != rank:
                raise SpecError(
                    f"affine monoid: generator {g} does not have rank {rank}"
                )
            if all(c == 0 for c in g):
                raise SpecError("affine monoid: zero generator is redundant")
        if w is None:
            w = Mat.identity(rank)
        elif not isinstance(w, Mat):
            w = Mat(w, cols=rank)
        if w.rows != rank or w.cols != rank:
            raise SpecError(f"affine monoid: involution matrix is not {rank} x {rank}")
        if w @ w != Mat.identity(rank):
            raise SpecError("affine monoid: involution does not square to the identity")
        self.rank = rank
        self.generators = generators
        self.w = w
        # tuple length -> the _FiberSearch of M^length summing to M, so each
        # length computes its weight data once; see _search
        self._searches = {}
        for g in generators:
            img = self.apply_w(g)
            if self.contains(img) is None:
                raise SpecError(
                    f"affine monoid: involution image {img} of generator {g} "
                    f"is not in the monoid"
                )

    def apply_w(self, v):
        """The row vector ``v`` times ``w``."""
        return _vecmat(v, self.w)

    def contains(self, v):
        """A membership certificate for ``v``, or None."""
        v = tuple(v)
        if len(v) != self.rank:
            raise SpecError(f"membership: vector {v} does not have rank {self.rank}")
        found = self._search(1)(v, limit=1)
        if not found:
            return None
        return found[0][1]

    def _search(self, length):
        """The memoized :class:`_FiberSearch` for ``length``-tuples of
        elements summing to a weight: the generators of ``M^length`` (each
        slot's in turn) under the map that sums the slots."""
        search = self._searches.get(length)
        if search is None:
            zero = (0,) * self.rank
            gens = tuple(zero * s + g + zero * (length - 1 - s)
                         for s in range(length) for g in self.generators)
            summing = kron(Mat([[1]] * length, cols=1), Mat.identity(self.rank))
            search = self._searches[length] = _FiberSearch(gens, summing)
        return search

    def __repr__(self):
        return (
            f"AffineMonoid(rank={self.rank}, "
            f"generators={[list(g) for g in self.generators]})"
        )


# ---------------------------------------------------------------------------
# exact fiber enumeration
# ---------------------------------------------------------------------------


def _rational_null_space(rows, n):
    """Basis of ``{x in Q^n : r . x = 0 for all r in rows}``."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(tuple(vec))
    return basis


def _fourier_motzkin(ineqs, nvars):
    """A rational solution of ``a . x + c >= 0`` constraints, or None.

    Each constraint is a list of ``nvars`` coefficients followed by the
    constant ``c``.  Elimination is exact over Fractions.
    """
    ineqs = [[Fraction(v) for v in iq] for iq in ineqs]
    if nvars == 0:
        return [] if all(iq[-1] >= 0 for iq in ineqs) else None
    k = nvars - 1
    pos = [iq for iq in ineqs if iq[k] > 0]
    neg = [iq for iq in ineqs if iq[k] < 0]
    rest = [iq[:k] + iq[-1:] for iq in ineqs if iq[k] == 0]
    for p in pos:
        for q in neg:
            comb = [
                (-q[k]) * p[j] + p[k] * q[j]
                for j in list(range(k)) + [nvars]
            ]
            rest.append(comb)
    partial = _fourier_motzkin(rest, k)
    if partial is None:
        return None
    lo, hi = None, None
    for p in pos:
        val = p[-1] + sum(p[j] * partial[j] for j in range(k))
        bound = -val / p[k]
        lo = bound if lo is None else max(lo, bound)
    for q in neg:
        val = q[-1] + sum(q[j] * partial[j] for j in range(k))
        bound = val / (-q[k])
        hi = bound if hi is None else min(hi, bound)
    if lo is None and hi is None:
        x = Fraction(0)
    elif lo is None:
        x = min(hi, Fraction(0))
    elif hi is None:
        x = max(lo, Fraction(0))
    else:
        x = lo
    return partial + [x]


def _weight_data(gens, weight):
    """Split generators into unit pairs and the pointed remainder, and find
    a positive rational functional certifying finite fibers.

    Returns ``(unit_idx, partner, point_idx, lam, unit_solver)`` where
    ``lam`` is a tuple of Fractions on the weight target with
    ``lam . (g W) >= 1`` for every pointed generator and ``lam`` vanishing
    on the weight images of the units, and ``unit_solver`` is the
    ``_LeftSolver`` of those weight images, factored once for the kernel
    test here and every later solve.  A :class:`_FiberSearch` computes it
    once, and an :class:`AffineMonoid` keeps one search per tuple length,
    so each monoid computes it once per length.  The search scales
    ``lam`` to integers (:func:`_scaled`); on ``N`` generated by 2 and 3
    it is ``(1/2,)``, which scales to ``(1,)``:

    >>> _weight_data(((2,), (3,)), Mat.identity(1))[:4]
    ([], {}, [0, 1], (Fraction(1, 2),))

    Raises:
        InfeasibleError: if some nonzero unit combination has weight zero
            (the fiber is infinite) or no functional exists.
    """
    m = weight.cols
    unit_idx = []
    partner = {}
    neg_gens = {tuple(-c for c in g): i for i, g in enumerate(gens)}
    for i, g in enumerate(gens):
        j = neg_gens.get(tuple(g))
        if j is not None:
            unit_idx.append(i)
            partner[i] = j
    point_idx = [i for i in range(len(gens)) if i not in partner]

    kill = [_vecmat(gens[i], weight) for i in unit_idx]
    unit_solver = _LeftSolver(Mat(kill, cols=m))
    # the unit combinations of weight zero, as vectors
    combos = unit_solver.kernel() @ Mat([gens[i] for i in unit_idx], cols=weight.rows)
    for u in combos.sparse:
        if u:
            raise InfeasibleError(
                "weight fiber is infinite: a nonzero unit combination "
                f"{_dense(u, combos.cols)} has weight zero"
            )

    images = [_vecmat(gens[i], weight) for i in point_idx]
    basis = _rational_null_space(kill, m)
    ineqs = []
    for y in images:
        coeffs = [sum(Fraction(bv) * yv for bv, yv in zip(b, y)) for b in basis]
        ineqs.append(coeffs + [Fraction(-1)])
    mu = _fourier_motzkin(ineqs, len(basis))
    if mu is None:
        raise InfeasibleError(
            "weight fiber is infinite: no functional separates the pointed "
            "generators from zero"
        )
    lam = tuple(
        sum(mu[k] * basis[k][t] for k in range(len(basis))) if basis else Fraction(0)
        for t in range(m)
    )
    return unit_idx, partner, point_idx, lam, unit_solver


def _scaled(lam):
    """``lam`` times the least common multiple of its denominators.

    On integer vectors it is an integer functional, a positive multiple of
    ``lam``, so every cost and budget of a search is scaled by one common
    denominator and the bound ``remaining // cost`` is the bound
    ``floor(remaining / cost)`` of the unscaled search.

    >>> _scaled((Fraction(1, 2), Fraction(2, 3), Fraction(0)))
    (3, 4, 0)
    """
    scale = lcm(*(x.denominator for x in lam))
    return tuple(x.numerator * (scale // x.denominator) for x in lam)


class _FiberSearch:
    """The monoid elements of each weight under one weight map.

    ``gens`` are ambient integer vectors and ``weight`` an integer matrix
    mapping the ambient lattice to ``Z^m``.  The first search that needs
    them computes, once, everything that does not depend on the target
    weight: :func:`_weight_data`, the factored unit lattice, and the cost
    of each pointed generator under the functional scaled to integers.
    Nothing is kept when :func:`_weight_data` raises, so every search
    raises its ``InfeasibleError`` again.

    Calling the search with a target weight ``v`` returns all monoid
    elements of that weight, as ``(vector, certificate)`` pairs,
    deduplicated and sorted lexicographically by vector.  ``limit`` stops
    the search early once that many distinct vectors are found (used for
    membership tests).  An :class:`AffineMonoid` keeps one search per
    tuple length, so the weight data is computed once per length.

    The search runs over the counts of the pointed generators, in
    lexicographic order, and settles the rest of the weight in the unit
    lattice.  The functional ``lam`` of :func:`_weight_data` vanishes on
    the weights of the units, so every element found spends exactly the
    budget ``lam . v``: the costs and the budget are integers scaled by
    one common denominator (:func:`_scaled`), each count but the last runs
    up to ``remaining // cost``, and the last is ``remaining / cost`` when
    that divides.  The first certificate found for a vector is kept.  On
    ``N`` generated by 2 and 3, ``lam = (1/2,)`` scales to ``(1,)``, the
    costs ``1`` and ``3/2`` to ``2`` and ``3``, and the budget of weight 7
    to ``7``:

    >>> _FiberSearch(((2,), (3,)), Mat.identity(1))((7,))
    [((7,), (2, 1))]
    """

    __slots__ = ("gens", "weight", "_plan")

    def __init__(self, gens, weight):
        self.gens = gens
        self.weight = weight
        self._plan = None  # see plan

    def plan(self):
        """``(unit_idx, partner, point_idx, lam, scaled lam, costs, unit
        solver)``, computed on the first call; ``costs`` lists the scaled
        cost of each generator of ``point_idx``, in order."""
        if self._plan is None:
            gens, weight = self.gens, self.weight
            unit_idx, partner, point_idx, lam, unit_solver = _weight_data(gens, weight)
            scaled = _scaled(lam)
            costs = [sum(map(mul, scaled, _vecmat(gens[i], weight))) for i in point_idx]
            self._plan = (unit_idx, partner, point_idx, lam, scaled, costs, unit_solver)
        return self._plan

    def __call__(self, v, limit=None):
        gens, weight = self.gens, self.weight
        v = tuple(v)
        rank = len(gens[0]) if gens else weight.rows
        if weight.rows != rank or len(v) != weight.cols:
            raise SpecError(
                f"weight map shape {weight.rows} x {weight.cols} does not match "
                f"ambient rank {rank} and target {v}"
            )
        if not gens:
            return [(tuple([0] * rank), ())] if not any(v) else []
        unit_idx, partner, point_idx, _, scaled, costs, unit_solver = self.plan()
        budget = sum(map(mul, scaled, v))
        found = {}

        def settle(current, counts):
            """Solve the residual weight in the unit lattice; record a hit."""
            cur_w = _vecmat(current, weight)
            z = tuple(a - b for a, b in zip(v, cur_w))
            if unit_idx:
                sols, bad = unit_solver.solve(Mat([z], cols=weight.cols))
                if bad:
                    return
                coeffs = sols.row(0)
            else:
                if any(z):
                    return
                coeffs = ()
            x = list(current)
            cert = list(counts)
            for ci, gi_idx in zip(coeffs, unit_idx):
                g = gens[gi_idx]
                for t in range(rank):
                    x[t] += ci * g[t]
                if ci >= 0:
                    cert[gi_idx] += ci
                else:
                    cert[partner[gi_idx]] += -ci
            x = tuple(x)
            if x not in found:
                found[x] = tuple(cert)

        last = len(point_idx) - 1

        def rec(pos, remaining, current, counts):
            i, cost = point_idx[pos], costs[pos]
            g = gens[i]
            if pos == last:
                # a hit spends the whole budget, so the last count is solved
                c, rest = divmod(remaining, cost)
                if not rest:
                    counts[i] = c
                    settle(tuple(cu + c * gv for cu, gv in zip(current, g)), counts)
                    counts[i] = 0
                return
            for c in range(remaining // cost + 1):
                if limit is not None and len(found) >= limit:
                    return
                counts[i] = c
                rec(
                    pos + 1,
                    remaining - c * cost,
                    tuple(cu + c * gv for cu, gv in zip(current, g)),
                    counts,
                )
            counts[i] = 0

        if not point_idx:
            settle(tuple([0] * rank), [0] * len(gens))
        elif budget >= 0:
            rec(0, budget, tuple([0] * rank), [0] * len(gens))
        return sorted(found.items())


def weight_tuples(monoid, v, length):
    """All ``length``-tuples of monoid elements summing to ``v``.

    This is the fiber enumeration for the product monoid ``M^length`` with
    the summing map, by the search the monoid keeps for ``length``; it
    returns plain tuples of vectors, sorted.
    """
    if length == 0:
        return [()] if not any(tuple(v)) else []
    rank = monoid.rank
    pairs = monoid._search(length)(v)
    out = []
    for x, _cert in pairs:
        out.append(tuple(x[s * rank : (s + 1) * rank] for s in range(length)))
    return sorted(out)


def pointedness_functional(monoid):
    """The rational functional certifying finite fibers, or a raise.

    For a monoid without units this gives the bound ``sum of certificate
    multiplicities <= floor(lam . v)`` used to certify truncations.
    """
    _, _, _, lam, *_ = monoid._search(1).plan()
    return lam


def elements_in_ball(monoid, bound):
    """The vectors of all monoid elements of l1-norm at most ``bound``,
    sorted."""
    if bound < 0:
        return []
    rank = monoid.rank

    def boxes(prefix, remaining):
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        for c in range(-remaining, remaining + 1):
            yield from boxes(prefix + [c], remaining - abs(c))

    return sorted(v for v in boxes([], bound) if monoid.contains(v) is not None)


# ---------------------------------------------------------------------------
# monoid catalog
# ---------------------------------------------------------------------------


def monoid_nat():
    """``N`` inside ``Z``, trivial involution."""
    return AffineMonoid([(1,)])


def monoid_int_sigma():
    """``Z`` with the sign involution."""
    return AffineMonoid([(1,), (-1,)], w=[[-1]])


# ---------------------------------------------------------------------------
# declarative descriptions (YAML-friendly dictionaries)
# ---------------------------------------------------------------------------


def _listed(desc, key, where):
    """The value under ``key`` of a description, which must be a list."""
    value = desc[key]
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{where}: {key} must be a list, got {value!r}")
    return value


def _is_int(x):
    """Whether ``x`` is an integer; YAML's ``yes``/``true`` load as ``bool``,
    which is an ``int`` to Python but not a number here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vector(entry, where, n=None):
    """``entry`` as a tuple of integers, of length ``n`` if given."""
    if (
        not isinstance(entry, (list, tuple))
        or not all(map(_is_int, entry))
        or (n is not None and len(entry) != n)
    ):
        size = "" if n is None else f"{n} "
        raise SpecError(f"{where}: expected a list of {size}integers, got {entry!r}")
    return tuple(entry)


def _coefficients(entry, names, where):
    """A generator name or a coefficient vector, as a coefficient vector
    over the generators ``names``."""
    if isinstance(entry, str):
        if entry not in names:
            raise SpecError(f"{where}: unknown generator name {entry!r}")
        return _unit_vec(len(names), names.index(entry))
    return _int_vector(entry, where, len(names))


def ring_from_description(desc, where="ring description"):
    """Build a ring from a plain dictionary.

    Expected keys: ``generators`` (names), ``orders`` (additive orders,
    0 = infinite), ``unit`` (name or coefficient vector), ``table`` (list
    of ``[i, j, coeffs]`` with indices or names; symmetric pairs may be
    given once), optional ``involution`` (matrix rows).
    """
    if not isinstance(desc, dict):
        raise SpecError(f"{where}: expected a mapping, got {type(desc).__name__}")
    for key in ("generators", "orders", "unit", "table"):
        if key not in desc:
            raise SpecError(f"{where}: missing key {key!r}")
    names = _listed(desc, "generators", where)
    n = len(names)
    if any(not isinstance(name, str) for name in names):
        raise SpecError(f"{where}: generators must be names")
    if len(set(names)) != n:
        raise SpecError(f"{where}: duplicate generator names")
    orders = _listed(desc, "orders", where)
    if len(orders) != n or any(not _is_int(o) or o < 0 for o in orders):
        raise SpecError(f"{where}: orders must be {n} nonnegative integers")
    relations = [
        [orders[i] if j == i else 0 for j in range(n)]
        for i in range(n)
        if orders[i] > 0
    ]
    add = group(n, relations)

    def resolve(entry):
        if isinstance(entry, str):
            if entry not in names:
                raise SpecError(f"{where}: unknown generator name {entry!r}")
            return names.index(entry)
        if _is_int(entry) and 0 <= entry < n:
            return entry
        raise SpecError(f"{where}: bad generator reference {entry!r}")

    table = [[None] * n for _ in range(n)]
    for item in _listed(desc, "table", where):
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise SpecError(f"{where}: table entries are [i, j, coeffs], got {item!r}")
        i, j = resolve(item[0]), resolve(item[1])
        val = _coefficients(item[2], names, f"{where}: table")
        if table[i][j] not in (None, val):
            raise SpecError(
                f"{where}: conflicting entries for product ({names[i]}, {names[j]})"
            )
        table[i][j] = val
        table[j][i] = val
    for i in range(n):
        for j in range(n):
            if table[i][j] is None:
                raise SpecError(
                    f"{where}: missing product ({names[i]}, {names[j]})"
                )

    inv = None
    if desc.get("involution") is not None:
        inv = [
            _coefficients(row, names, f"{where}: involution")
            for row in _listed(desc, "involution", where)
        ]
    one = _coefficients(desc["unit"], names, f"{where}: unit")
    return make_ring(add, table, one, inv, names=names, where=where)


def ring_map_from_description(desc, source, target, where="ring map description"):
    """Build a :class:`RingHom` from ``{"map": [...]}``: one entry per
    source generator, each a target generator name or a coefficient
    vector in the target."""
    if not isinstance(desc, dict):
        raise SpecError(f"{where}: expected a mapping, got {type(desc).__name__}")
    if "map" not in desc:
        raise SpecError(f"{where}: missing key 'map'")
    rows = [
        _coefficients(entry, target.names, f"{where}: map")
        for entry in _listed(desc, "map", where)
    ]
    return ring_hom(source, target, rows, where=where)


def monoid_from_description(desc, where="monoid description"):
    """Build an affine monoid from ``{"generators": [...], "involution": ...}``."""
    if not isinstance(desc, dict):
        raise SpecError(f"{where}: expected a mapping, got {type(desc).__name__}")
    if "generators" not in desc:
        raise SpecError(f"{where}: missing key 'generators'")
    gens = [
        _int_vector(g, f"{where}: generators")
        for g in _listed(desc, "generators", where)
    ]
    if not gens:
        raise SpecError(f"{where}: at least one generator required")
    w = None
    if desc.get("involution") is not None:
        w = [
            _int_vector(row, f"{where}: involution", len(gens[0]))
            for row in _listed(desc, "involution", where)
        ]
    return AffineMonoid(gens, w=w)


def load_description(path):
    """Load a YAML description file as a plain dictionary."""
    import yaml

    with open(path) as fh:  # libyaml when PyYAML has it: the same dicts, faster
        data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top level must be a mapping")
    return data
