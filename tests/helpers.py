"""Independent routes, checks and catalog entries that only the tests use.

The calculator never runs these.  They are second routes to facts the
library computes one way (chains on all simplices, the one-sided bar
construction, the smash identity of tensor cubes), or small catalog
objects the tests draw from.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from thrcalc import dihedral
from thrcalc.cubes import tensor_cube, total_fiber
from thrcalc.dihedral import (
    ComparisonWitness,
    TruncDihedralSet,
    _first_incompatibility,
    _signed_permutation_sigma,
    _total,
    _vec_add,
    normalize_orbit,
    windowed_simplex_tuples,
)
from thrcalc.errors import SpecError
from thrcalc.fgab import (
    ExactnessReport,
    Mat,
    _vecmat,
    _xgcd,
    group,
    hom,
    balanced_tensor,
    kron,
    row_kernel,
    snf,
    solve_left,
    vstack,
)
from thrcalc.homology import (
    ChainComplex,
    ChainMap,
    SimplicialChains,
    _chains,
    _tensor_matrices,
    homology,
    mapping_fiber,
    tensor_complex,
)
from thrcalc.involutive_algebra import (
    AffineMonoid,
    InvolutiveRing,
    RingHom,
    _FiberSearch,
    _unit_vec,
    _weight_data,
    elements_in_ball,
    make_ring,
)

# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


def ring_gaussian_integers():
    """``Z[i]`` with complex conjugation as the involution."""
    add = group(2, [])
    table = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]
    return make_ring(add, table, (1, 0), [[1, 0], [0, -1]], names=("one", "i"))


def monoid_int():
    """``Z`` as a monoid (both unit generators), trivial involution."""
    return AffineMonoid([(1,), (-1,)])


def monoid_nat_power(k):
    """``N^k``, trivial involution."""
    return AffineMonoid([_unit_vec(k, i) for i in range(k)], rank=k)


def monoid_nat_square_swap():
    """``N^2`` with the coordinate swap involution."""
    return AffineMonoid([(1, 0), (0, 1)], w=[[0, 1], [1, 0]])


def monoid_antidiagonal_halfplane():
    """``{(x1, x2) in Z^2 : x1 + x2 <= 0}``, trivial involution."""
    return AffineMonoid([(-1, 0), (0, -1), (1, -1), (-1, 1)])


def product_monoid(monoid, length):
    """The product ``M^length`` with the diagonal involution."""
    slots = Mat.identity(length)
    gens = kron(slots, Mat(monoid.generators, cols=monoid.rank))
    return AffineMonoid(gens.data, w=kron(slots, monoid.w), rank=monoid.rank * length)


@dataclass(frozen=True)
class MonoidElement:
    """An element of an affine monoid together with a membership
    certificate: nonnegative generator multiplicities that re-evaluate to
    the vector (checked at construction)."""

    vector: tuple
    certificate: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.certificate):
            raise SpecError(
                f"monoid element {self.vector}: negative certificate entry"
            )


def monoid_element(monoid, v):
    """The vector ``v`` as a certified :class:`MonoidElement` of ``monoid``."""
    cert = monoid.contains(v)
    if cert is None:
        raise SpecError(f"membership: {tuple(v)} is not in the monoid")
    return MonoidElement(tuple(v), cert)


def elements_of_weight(monoid, weight, v):
    """The exact, finite fiber over ``v`` of the weight map ``weight``
    (integer rows, the images of the ambient basis; None for the identity),
    as :class:`MonoidElement` values with membership certificates."""
    weight = Mat.identity(monoid.rank) if weight is None else Mat(weight)
    return [MonoidElement(x, cert)
            for x, cert in enumerate_fiber(monoid.generators, weight, v)]


def enumerate_fiber(gens, weight, v, limit=None):
    """What a :class:`_FiberSearch` returns for the weight ``v``, from a
    search of its own: the weight data is computed afresh on each call."""
    return _FiberSearch(gens, weight)(v, limit)


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


def euler_characteristic(c):
    """The alternating sum of the ranks of the chain complex ``c``."""
    return sum((-1) ** q * c.rank(q) for q in c.support)


def shift(c, k):
    """The complex with ``C_{q-k}`` in degree ``q`` and differentials
    scaled by ``(-1)**k``."""
    sign = -1 if k % 2 else 1
    ranks = {q + k: c.rank(q) for q in c.support}
    diffs = {q + k: c.diff(q).scale(sign) for q in c.support if c.rank(q - 1)}
    return ChainComplex(ranks, diffs)


def tensor_chain_map(f, g):
    """``f (x) g`` between the tensor complexes of the sources and targets."""
    return ChainMap(tensor_complex(f.source, g.source),
                    tensor_complex(f.target, g.target), _tensor_matrices(f, g))


# ---------------------------------------------------------------------------
# ring elements, one table entry at a time
# ---------------------------------------------------------------------------


def ring_mul(ring, x, y):
    """The product of two elements of ``ring``, given as coefficient
    vectors, one table entry at a time and reduced in the additive group;
    the library multiplies through one stacked product with the table."""
    n = ring.add.n_gens
    acc = [0] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            tij = ring.table[i][j]
            for k in range(n):
                acc[k] += xi * yj * tij[k]
    return ring.add.reduce(tuple(acc))


def ring_square(ring, x):
    return ring_mul(ring, x, x)


# ---------------------------------------------------------------------------
# tensor presentations, one pure tensor of unit vectors at a time
# ---------------------------------------------------------------------------
#
# The library builds these with ``kron``; the loops below spell out the
# same rows over unit vectors, placing ``x_i (x) y_j`` at ``i * n_y + j``.


def pure_tensor(nh, x, y):
    """Coefficient vector of ``x (x) y``, with ``nh`` the length of ``y``."""
    out = [0] * (len(x) * nh)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i * nh + j] += xi * yj
    return tuple(out)


def _units(n):
    return [_unit_vec(n, i) for i in range(n)]


def _difference(u, v):
    return tuple(a - b for a, b in zip(u, v))


def loop_tensor_relations(g, h):
    """Relation rows of ``g (x) h``: each relation of ``g`` tensored with
    each generator of ``h``, then each generator of ``g`` with each
    relation of ``h``."""
    ng, nh = g.n_gens, h.n_gens
    rows = [pure_tensor(nh, r, _unit_vec(nh, j)) for r in g.relations.data for j in range(nh)]
    rows += [pure_tensor(nh, _unit_vec(ng, i), r) for r in h.relations.data for i in range(ng)]
    return rows


def lattice_rows(rows):
    """The distinct nonzero ``rows``, as tuples in the order they first
    occur: what a group built on ``rows`` keeps as its ``relations``."""
    return tuple(row for row in dict.fromkeys(map(tuple, rows)) if any(row))


def loop_slide_rows(g, h, slides):
    """Rows of ``l x (x) y - x (x) r y`` over generator pairs ``(x, y)`` of
    ``g`` and ``h``, for each pair ``(l, r)`` of matrices in ``slides``."""
    nh = h.n_gens
    return [_difference(pure_tensor(nh, _vecmat(x, left), y), pure_tensor(nh, x, _vecmat(y, right)))
            for left, right in slides
            for x in _units(g.n_gens)
            for y in _units(nh)]


def loop_pi0_thr(ring):
    """The tensor-coordinate matrices of ``pi0_thr`` and its reports, as
    lists of rows: ``t_span`` (``x (x) c y - c x (x) y`` over generator
    triples, ``c`` in ``(a^2, 2a)``), ``tran`` (``a -> 2a (x) 1``),
    ``unit`` (``a -> a (x) 1``), ``alpha`` (``a -> 1 (x) a``) and ``act_g``
    (one matrix per generator, acting on the right slot)."""
    n = ring.n_gens
    units = _units(n)
    t_span = [
        _difference(pure_tensor(n, x, ring_mul(ring, c, y)),
                    pure_tensor(n, ring_mul(ring, c, x), y))
        for i in range(n)
        for x in units
        for y in units
        for c in (ring.table[i][i], tuple(2 * v for v in units[i]))
    ]
    return {
        "t_span": t_span,
        "tran": [tuple(2 * c for c in pure_tensor(n, x, ring.one)) for x in units],
        "unit": [pure_tensor(n, x, ring.one) for x in units],
        "alpha": [pure_tensor(n, ring.one, x) for x in units],
        "act_g": [[pure_tensor(n, x, ring_mul(ring, a, y)) for x in units for y in units]
                  for a in units],
    }


def loop_twisted_rows(r2, phi):
    """Rows of ``phi(c) x (x) y - x (x) phi(c) y`` over generator triples
    ``(c, x, y)`` of the ring ``r2`` with Frobenius ``phi``."""
    n = r2.n_gens
    units = _units(n)
    return [
        _difference(pure_tensor(n, ring_mul(r2, pc, x), y),
                    pure_tensor(n, x, ring_mul(r2, pc, y)))
        for pc in map(phi.apply, units)
        for x in units
        for y in units
    ]


def loop_base_change(ms, ring_map):
    """The matrices ``base_change(ms, ring_map)`` builds, as lists of rows:
    the relations of both tensored levels, ``w``, ``res`` and ``tran``
    tensored with the involution or identity of B, and B's action on both
    levels through the right slot."""
    a, b = ring_map.source, ring_map.target
    nb = b.n_gens
    b_units = _units(nb)
    m = ms.mackey

    def level_relations(grp, acts):
        units = _units(grp.n_gens)
        return loop_tensor_relations(grp, b.add) + [
            _difference(pure_tensor(nb, act.apply(x), y),
                        pure_tensor(nb, x, ring_mul(b, ring_map.add_hom.apply(ai), y)))
            for act, ai in zip(acts, _units(a.n_gens))
            for x in units
            for y in b_units
        ]

    def tensor_map(f, b_map):
        return [pure_tensor(nb, f.apply(x), b_map(y))
                for x in _units(f.source.n_gens)
                for y in b_units]

    def action(grp):
        units = _units(grp.n_gens)
        return [[pure_tensor(nb, x, ring_mul(b, c, y)) for x in units for y in b_units]
                for c in b_units]

    return {
        "e_relations": level_relations(m.e, ms.act_e),
        "g_relations": level_relations(m.g, ms.act_g),
        "w": tensor_map(m.w, b.w.apply),
        "res": tensor_map(m.res, lambda y: y),
        "tran": tensor_map(m.tran, lambda y: y),
        "act_e": action(m.e),
        "act_g": action(m.g),
    }


def loop_comparison(ring_map):
    """The rows of ``verify_base_change``'s comparison: ``a (x) b -> f(a) b``
    on underlying levels, ``(x (x) y) (x) b -> f(x) (x) f(y) b`` on fixed
    levels."""
    a, b = ring_map.source, ring_map.target
    images = [ring_map.add_hom.apply(x) for x in _units(a.n_gens)]
    b_units = _units(b.n_gens)
    rows_e = [ring_mul(b, fx, y) for fx in images for y in b_units]
    rows_g = [pure_tensor(b.n_gens, fx, ring_mul(b, fy, z))
              for fx in images for fy in images for z in b_units]
    return rows_e, rows_g


# ---------------------------------------------------------------------------
# second routes
# ---------------------------------------------------------------------------


def solve_left_is_exact(seq):
    """``is_exact`` by solving for every row: the kernel lattice is read off
    the full ``row_kernel``, each direction of the lattice comparison runs
    one ``solve_left`` (a full factorization, U included) over all the
    rows, and the first row without a solution is reported."""
    for a, b in zip(seq, seq[1:]):
        if a.target.n_gens != b.source.n_gens:
            return ExactnessReport(False, "sequence is not composable")
        if not a.then(b).is_zero_map():
            return ExactnessReport(False, "composite is nonzero")
        n = b.source.n_gens
        ker = row_kernel(vstack(b.matrix, b.target.relations))
        ker_rows = Mat([row[:n] for row in ker.data] + list(b.source.relations.data), cols=n)
        im_rows = vstack(a.matrix, a.target.relations)
        for row, sol in zip(ker_rows.data, solve_left(im_rows, ker_rows.data)):
            if sol is None:
                return ExactnessReport(
                    False, f"kernel element {tuple(row)} is not in the image")
        for row, sol in zip(im_rows.data, solve_left(ker_rows, im_rows.data)):
            if sol is None:
                return ExactnessReport(
                    False, f"image element {tuple(row)} is not in the kernel")
    return ExactnessReport(True, "exact at every joint")


# The axiom checks of ``make_ring``, ``ring_hom`` and ``frobenius`` as they
# were before each axiom became one stacked membership test: one element
# product and one ``same_element`` at a time, in the same order.  Each
# returns the ``SpecError`` message the checks raise, or None.


def spec_message(checks):
    """``checks`` returning its ``SpecError`` message, or None if it passes."""

    @functools.wraps(checks)
    def run(*args, **kwargs):
        try:
            checks(*args, **kwargs)
        except SpecError as exc:
            return str(exc)
        return None
    return run


@spec_message
def loop_make_ring(add, table, one, w_matrix, names=None, where="ring"):
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

    # The table defines a map on the free group; it descends to `add` iff
    # every additive relation multiplies to zero against every generator.
    for rel in [add.relations.row(i) for i in range(add.relations.rows)]:
        for j in range(n):
            acc = [0] * n
            for i, ri in enumerate(rel):
                if ri == 0:
                    continue
                for k in range(n):
                    acc[k] += ri * table[i][j][k]
            if not add.is_zero(tuple(acc)):
                raise SpecError(
                    f"{where}: multiplication table does not respect the "
                    f"additive relation {rel} against generator {names[j]}"
                )

    ring = InvolutiveRing(add, table, one, None, names)

    for i in range(n):
        e = _unit_vec(n, i)
        if not add.same_element(ring_mul(ring, one, e), e):
            raise SpecError(f"{where}: unit is not neutral on generator {names[i]}")

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = ring_mul(ring, table[i][j], _unit_vec(n, k))
                right = ring_mul(ring, _unit_vec(n, i), table[j][k])
                if not add.same_element(left, right):
                    raise SpecError(
                        f"{where}: multiplication is not associative at "
                        f"({names[i]}, {names[j]}, {names[k]})"
                    )

    if w_matrix is None:
        w_matrix = Mat.identity(n)
    elif not isinstance(w_matrix, Mat):
        w_matrix = Mat([tuple(r) for r in w_matrix], cols=n)
    try:
        w = hom(add, add, [w_matrix.row(i) for i in range(n)])
    except ValueError as exc:
        raise SpecError(f"{where}: involution is not additively well defined: {exc}")
    for i in range(n):
        e = _unit_vec(n, i)
        if not add.same_element(w.apply(w.apply(e)), e):
            raise SpecError(
                f"{where}: involution does not square to the identity on {names[i]}"
            )
    if not add.same_element(w.apply(one), one):
        raise SpecError(f"{where}: involution does not fix the unit")
    for i in range(n):
        for j in range(n):
            lhs = w.apply(table[i][j])
            rhs = ring_mul(ring, w.apply(_unit_vec(n, i)), w.apply(_unit_vec(n, j)))
            if not add.same_element(lhs, rhs):
                raise SpecError(
                    f"{where}: involution is not multiplicative at "
                    f"({names[i]}, {names[j]})"
                )

    return InvolutiveRing(add, table, one, w, names)


@spec_message
def loop_ring_hom(source, target, rows, where="ring map"):
    try:
        f = hom(source.add, target.add, rows)
    except ValueError as exc:
        raise SpecError(f"{where}: not additively well defined: {exc}")
    if not target.add.same_element(f.apply(source.one), target.one):
        raise SpecError(f"{where}: does not send the unit to the unit")
    n = source.n_gens
    for i in range(n):
        for j in range(n):
            lhs = f.apply(source.table[i][j])
            rhs = ring_mul(target, f.apply(_unit_vec(n, i)), f.apply(_unit_vec(n, j)))
            if not target.add.same_element(lhs, rhs):
                raise SpecError(
                    f"{where}: not multiplicative at generators ({i}, {j})"
                )
    for i in range(n):
        e = _unit_vec(n, i)
        lhs = f.apply(source.w.apply(e))
        rhs = target.w.apply(f.apply(e))
        if not target.add.same_element(lhs, rhs):
            raise SpecError(
                f"{where}: does not commute with the involutions at generator {i}"
            )
    return RingHom(source, target, f)


@spec_message
def loop_frobenius(ring2):
    n = ring2.add.n_gens
    for i in range(n):
        doubled = tuple(2 * c for c in _unit_vec(n, i))
        if not ring2.add.is_zero(doubled):
            raise SpecError("frobenius: ring does not satisfy 2 = 0")
    rows = [ring2.table[i][i] for i in range(n)]
    phi = hom(ring2.add, ring2.add, rows)
    if ring2.add.is_finite() and ring2.add.order() <= 256:
        for x in ring2.add.elements():
            if not ring2.add.same_element(phi.apply(x), ring_square(ring2, x)):
                raise SpecError(
                    f"frobenius: matrix disagrees with squaring at {x}"
                )
    return phi


def is_surjective_on_finite(f):
    """Whether a homomorphism between finite groups is surjective, by
    listing the image of every element of the source."""
    hit = {f.target.reduce(f.apply(x)) for x in f.source.elements()}
    return len(hit) == f.target.order()


# The weight-fiber search as it was before it ran on integers: Fraction
# costs and budget, every count looped up to ``int(remaining / cost)``,
# the weight data computed on every call.


def fraction_enumerate_fiber(gens, weight, v, limit=None):
    """``enumerate_fiber`` in ``Fraction`` arithmetic, statement for
    statement as it was, except that each settle calls ``solve_left``
    (the same solutions, from a factorization of its own)."""
    v = tuple(v)
    rank = len(gens[0]) if gens else weight.rows
    m = weight.cols
    if weight.rows != rank or len(v) != m:
        raise SpecError(
            f"weight map shape {weight.rows} x {weight.cols} does not match "
            f"ambient rank {rank} and target {v}"
        )
    if not gens:
        return [(tuple([0] * rank), ())] if not any(v) else []

    unit_idx, partner, point_idx, lam, _ = _weight_data(gens, weight)
    unit_rows = [gens[i] for i in unit_idx]
    bw = Mat([_vecmat(g, weight) for g in unit_rows], cols=m)
    images = {i: _vecmat(gens[i], weight) for i in point_idx}
    costs = {
        i: sum(lam[t] * images[i][t] for t in range(m)) for i in point_idx
    }
    budget = sum(lam[t] * v[t] for t in range(m))

    found = {}

    def settle(current, counts):
        cur_w = _vecmat(current, weight)
        z = tuple(a - b for a, b in zip(v, cur_w))
        if unit_rows:
            coeffs = solve_left(bw, [z])[0]
            if coeffs is None:
                return
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

    def rec(pos, remaining, current, counts):
        if limit is not None and len(found) >= limit:
            return
        if pos == len(point_idx):
            settle(current, counts)
            return
        i = point_idx[pos]
        cost = costs[i]
        cmax = int(remaining / cost)
        g = gens[i]
        for c in range(cmax + 1):
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

    if budget >= 0 or not point_idx:
        rec(0, budget if budget >= 0 else Fraction(0), tuple([0] * rank), [0] * len(gens))
    return sorted(found.items())


def fraction_weight_tuples(monoid, v, length):
    """``weight_tuples`` by :func:`fraction_enumerate_fiber`."""
    if length == 0:
        return [()] if not any(tuple(v)) else []
    rank = monoid.rank
    gens = kron(Mat.identity(length), Mat(monoid.generators, cols=rank)).data
    big_weight = kron(Mat([[1]] * length, cols=1), Mat.identity(rank))
    pairs = fraction_enumerate_fiber(gens, big_weight, v)
    return sorted(tuple(x[s * rank : (s + 1) * rank] for s in range(length))
                  for x, _cert in pairs)


def fraction_contains(monoid, v):
    """``AffineMonoid.contains`` by :func:`fraction_enumerate_fiber`."""
    found = fraction_enumerate_fiber(
        monoid.generators, Mat.identity(monoid.rank), tuple(v), limit=1)
    return found[0][1] if found else None


def reference_snf(m, u_cols=None):
    """``fgab.snf`` as it was before its shortcuts, statement for statement:
    the pivot search scans the whole remaining block, every row and column
    pass scans every row and column and adds whole rows and columns, the
    divisibility sweep runs after every pivot, and every rescan is made.
    ``snf`` must make the same operations, hence return the same S, U
    and V."""
    r, c = m.rows, m.cols
    width = r if u_cols is None else min(u_cols, r)
    a = [list(row) for row in m.data]
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

    def row_add(i_dst, i_src, k):
        for arr in with_u:
            dst, src = arr[i_dst], arr[i_src]
            for j in range(len(dst)):
                dst[j] += k * src[j]

    def col_add(j_dst, j_src, k):
        for arr in (a, v):
            for row in arr:
                row[j_dst] += k * row[j_src]

    t = 0
    while t < min(r, c):
        # Pick the nonzero entry of least magnitude as the pivot.
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
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
        while True:
            for i in range(r):
                if i != t and a[i][t]:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        row_add(i, t, -(q // p))
                    else:
                        g, x, y = _xgcd(p, q)
                        row_combine(t, i, x, y, -(q // g), p // g)
            if any(a[i][t] for i in range(r) if i != t):
                continue
            for j in range(c):
                if j != t and a[t][j]:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        col_add(j, t, -(q // p))
                    else:
                        g, x, y = _xgcd(p, q)
                        col_combine(t, j, x, y, -(q // g), p // g)
            if any(a[t][j] for j in range(c) if j != t) or any(a[i][t] for i in range(r) if i != t):
                continue
            # Divisibility sweep: the pivot must divide the rest of the block.
            p = a[t][t]
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    for i in range(min(r, c)):
        if a[i][i] < 0:
            for arr in with_u:
                arr[i] = [-x for x in arr[i]]
    return (Mat._of(tuple(map(tuple, a)), c), Mat._of(tuple(map(tuple, u)), width),
            Mat._of(tuple(map(tuple, v)), c))


# The integer row kernels of ``fgab`` as they were before they ran on
# whole rows: one generator expression per row, and each coordinate taken
# modulo its Smith diagonal entry ``d`` (kept as it is where ``d == 0``).


def generator_combine(coeffs, rows, width):
    """``fgab._combine``: every nonzero term multiplied and added entry by
    entry, starting from the zero row."""
    acc = (0,) * width
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * b for a, b in zip(acc, row)]
    return tuple(acc)


def generator_add(m, other):
    return Mat._of(tuple(tuple(a + b for a, b in zip(r1, r2))
                         for r1, r2 in zip(m.data, other.data)), m.cols)


def generator_sub(m, other):
    return Mat._of(tuple(tuple(a - b for a, b in zip(r1, r2))
                         for r1, r2 in zip(m.data, other.data)), m.cols)


def generator_neg(m):
    return Mat._of(tuple(tuple(-a for a in row) for row in m.data), m.cols)


def generator_scale(m, k):
    if type(k) is not int:
        return Mat([[k * a for a in row] for row in m.data], cols=m.cols)
    return Mat._of(tuple(tuple(k * a for a in row) for row in m.data), m.cols)


def generator_kron(a, b):
    return Mat._of(tuple(tuple(x * y for x in ra for y in rb)
                         for ra in a.data for rb in b.data), a.cols * b.cols)


def generator_product(m, other):
    """``m @ other`` through :func:`generator_combine`."""
    return Mat._of(tuple(generator_combine(row, other.data, other.cols) for row in m.data),
                   other.cols)


def generator_reduce(g, x):
    """``FgAbGroup.reduce`` entry by entry."""
    return generator_reduce_rows(g, Mat.row_vector(x)).data[0]


def _unimodular_inverse(v):
    """Inverse of a unimodular matrix, computed via SNF bookkeeping."""
    s, u, w = snf(v)
    n = v.rows
    if any(s.data[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    # u @ v @ w == I  =>  v^{-1} = w @ u
    return w @ u


def _mod_diagonal(rows, diag):
    return tuple(tuple(a % d if d else a for a, d in zip(row, diag)) for row in rows)


def generator_reduce_rows(g, m):
    """``FgAbGroup._reduce_rows`` through explicit products: into Smith
    coordinates by ``_to`` (not at all in a plain group), each entry
    modulo the diagonal, and back by the inverse of the residue's basis
    change (from ``snf`` bookkeeping, where ``fgab`` solves ``x V = I``:
    a unimodular matrix has one inverse) with its columns placed at the
    kept generators."""
    if g._plain:
        return Mat._of(_mod_diagonal(m.data, g._diag), g.n_gens)
    rows = generator_product(m, g._to)
    k = rows.cols
    inv = Mat.identity(k) if g._v is None else _unimodular_inverse(g._v)
    back = Mat._of(tuple(tuple(row[g._kept.index(j)] if j in g._kept else 0
                               for j in range(g.n_gens)) for row in inv.data), g.n_gens)
    return generator_product(Mat._of(_mod_diagonal(rows.data, g._diag), k), back)


def generator_first_nonzero_row(g, m):
    """``FgAbGroup._first_nonzero_row``: the first row of ``m`` in Smith
    coordinates with a coordinate that its diagonal entry does not
    divide."""
    rows = m if g._plain else generator_product(m, g._to)
    return next((i for i, row in enumerate(rows.data)
                 if any(a % d if d else a for a, d in zip(row, g._diag))), None)


class DenseGroup:
    """The dense route of a presented group, the second route of
    ``FgAbGroup``: one ``snf`` of the whole relation matrix, zero and
    repeated rows included, with membership read through its basis change
    ``V``.  An element ``x`` is ``x V`` in Smith coordinates; its
    representative is ``((x V) mod d) V^-1``.  The group is plain where
    ``V`` is the identity."""

    def __init__(self, n_gens, relations):
        self.n_gens = n_gens
        s, _, self.v = snf(relations, 0)
        k = min(relations.rows, n_gens)
        self.diag = tuple(s.data[i][i] if i < k else 0 for i in range(n_gens))
        self.plain = self.v == Mat.identity(n_gens)
        self.free_rank = self.diag.count(0)
        self.invariant_factors = tuple(d for d in self.diag if d > 1)

    def reduce_rows(self, m):
        out = Mat._of(_mod_diagonal(generator_product(m, self.v).data, self.diag), self.n_gens)
        return generator_product(out, _unimodular_inverse(self.v))

    def reduce(self, x):
        return self.reduce_rows(Mat.row_vector(x)).data[0]

    def first_nonzero_row(self, m):
        return next((i for i, row in enumerate(generator_product(m, self.v).data)
                     if any(a % d if d else a for a, d in zip(row, self.diag))), None)

    def elements(self):
        """One representative ``y V^-1`` of each element of a finite group,
        over the reduced Smith coordinates ``y``, sorted."""
        inv = _unimodular_inverse(self.v)
        return sorted(generator_combine(y, inv.data, inv.cols)
                      for y in itertools.product(*(range(d) for d in self.diag)))


def tensor(g, h):
    """The tensor product over Z of two presented groups: a
    ``balanced_tensor`` with no slides."""
    return balanced_tensor(g, h, ())


def full_chains(x):
    """The complex on all simplices (degenerate ones included): the same
    homology as the normalized complex in valid degrees."""
    bases = [x.simplices[q] for q in range(x.q_max + 1)]
    return SimplicialChains(_chains(x, bases), tuple(bases), x.q_max - 1)


def real_nerve(monoid, q_max, window=None):
    """The one-sided bar construction with the order-reversing involution:
    ``q``-simplices are ``q``-tuples, the outer faces drop an entry and the
    reflection is ``(x_1, ..., x_q) -> (s(x_q), ..., s(x_1))``.

    A window (total l1 bound) is required whenever the monoid has any
    generator, since the nerve is then degreewise infinite.
    """
    if monoid.generators and window is None:
        raise SpecError("real_nerve: a window is required for an infinite monoid")
    sigma = (
        _signed_permutation_sigma(monoid)
        if window is not None
        else monoid.apply_w
    )
    zero = tuple([0] * monoid.rank)
    if window is not None:
        ball = elements_in_ball(monoid, window)
        levels = [windowed_simplex_tuples(ball, q, window) for q in range(q_max + 1)]
    else:
        levels = [[(zero,) * q] for q in range(q_max + 1)]

    def face(q, i, x):
        if i == 0:
            return x[1:]
        if i == q:
            return x[:-1]
        return x[: i - 1] + (_vec_add(x[i - 1], x[i]),) + x[i + 1 :]

    def degeneracy(q, i, x):
        return x[:i] + (zero,) + x[i:]

    def invol(q, x):
        return tuple(sigma(e) for e in reversed(x))

    return TruncDihedralSet(q_max, levels, face, degeneracy, invol=invol, flag="real")


def sign_splitting_check(monoid, j, q_max, window):
    """Verify that dropping the zeroth entry splits a two-element weight
    orbit piece as (which orbit representative) x (one-sided bar), as real
    simplicial sets, on an l1 window.

    ``monoid`` must be of rank one with the sign involution; ``j > 0``.
    """
    if j <= 0:
        raise SpecError("sign splitting needs a weight with a free orbit")
    orbit = normalize_orbit(monoid, ((j,),))
    if len(orbit) != 2:
        raise SpecError("weight orbit is not free")
    lhs = dihedral.dihedral_nerve_piece(monoid, orbit, q_max, window=window)
    bar = real_nerve(monoid, q_max, window=window)
    rep = orbit[1]  # the positive representative

    def to_pair(x):
        return (0 if _total(x) == rep else 1, x[1:])

    counts = []
    for q in range(q_max + 1):
        image = {to_pair(x) for x in lhs.simplices[q]}
        if len(image) != lhs.count(q):
            return ComparisonWitness(
                False, tuple(counts), f"splitting not injective at degree {q}"
            )
        counts.append(len(image))

    detail = _first_incompatibility(
        lhs, to_pair,
        lambda q, i, p: (p[0], bar.face(q, i, p[1])),
        lambda q, i, p: (p[0], bar.degeneracy(q, i, p[1])),
        None,
        lambda q, p: (1 - p[0], bar.invol(q, p[1])),
    )
    if detail is not None:
        return ComparisonWitness(False, tuple(counts), detail)
    return ComparisonWitness(True, tuple(counts))


@dataclass(frozen=True)
class SmashReport:
    ok: bool
    degrees: dict
    detail: str


def smash_cube_check(maps):
    """Homology of a tensor of fibers against the total fiber of the tensor
    cube built from the same maps."""
    maps = tuple(maps)
    cube = tensor_cube(maps)
    right = total_fiber(cube)
    left = mapping_fiber(maps[0]).complex
    for f in maps[1:]:
        left = tensor_complex(left, mapping_fiber(f).complex)
    degrees = {}
    ok = True
    lo = min([q for c in (left, right) if c.support for q in (c.lo,)] or [0])
    hi = max([q for c in (left, right) if c.support for q in (c.hi,)] or [0])
    for q in range(lo, hi + 1):
        hl = homology(left, q)
        hr = homology(right, q)
        degrees[q] = (hl, hr)
        ok = ok and hl == hr
    return SmashReport(ok, degrees, f"checked degrees {lo}..{hi}")
