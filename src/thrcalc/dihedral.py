"""Truncated dihedral, cyclic and real simplicial sets.

The central objects are finite truncations of monoid nerves.  For an
affine monoid ``M`` the cyclic bar construction has ``(q+1)``-tuples of
monoid elements as ``q``-simplices with

* faces ``d_i`` merging adjacent entries (the last face wraps around),
* degeneracies ``s_i`` inserting a zero,
* the rotation ``t(x_0, ..., x_q) = (x_q, x_0, ..., x_{q-1})``,
* the reflection ``w(x_0, ..., x_q) = (s(x_0), s(x_q), ..., s(x_1))``
  where ``s`` is the monoid involution.

Total weight is preserved by all four maps, so the nerve splits over the
involution orbits of weights; pieces are enumerated exactly via the weight
fiber machinery and are rejected when infinite.  An optional window (a
bound on the total l1-norm of a simplex) gives finite, structure-closed
truncations of pieces that would otherwise be infinite; windows require
the involution matrix to be a signed permutation so that they are closed
under the reflection.

Edgewise subdivision is implemented by operator algebra: a monotone map
``mu`` acts on simplices through its epi-mono factorization, and the two
subdivisions are precomposition with

* ``D_sigma(alpha)(a) = q - alpha(p - a)`` for ``a <= p`` and
  ``alpha(a - p - 1) + q + 1`` above (squaring subdivision, carrying a
  levelwise involution), and
* ``D_r(alpha)(a + k(p+1)) = alpha(a) + k(q+1)`` (r-fold cyclic
  subdivision, carrying a levelwise ``C_r``-action ``t**(q+1)``).

``D_sigma(alpha)`` is fixed by conjugation with the order reversal, which
is exactly why the levelwise reflection commutes with the subdivided
structure maps; the cyclic ``D_r`` is not, so the reflection is not kept
on ``sd_r`` outputs and power-map checks go through the untruncated
tuples instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb
from operator import add
from typing import NamedTuple

from .errors import CertificateError, InfeasibleError, SpecError
from .involutive_algebra import (
    AffineMonoid,
    elements_in_ball,
    pointedness_functional,
    weight_tuples,
)

# ---------------------------------------------------------------------------
# the truncated-set container
# ---------------------------------------------------------------------------


class SimplexLevels(Sequence):
    """The simplex levels of a truncation, each built by ``build(q)`` when
    it is first read and kept from then on; a slice is the tuple of its
    levels, each built so."""

    __slots__ = ("_build", "_levels")

    def __init__(self, n, build):
        self._build = build
        self._levels = [None] * n

    def __len__(self):
        return len(self._levels)

    def __getitem__(self, q):
        if isinstance(q, slice):
            return tuple(map(self.__getitem__, range(len(self))[q]))
        level = self._levels[q]
        if level is None:
            level = self._levels[q] = self._build(range(len(self))[q])
        return level

    def built(self):
        """The degrees whose level has been built so far."""
        return tuple(q for q, level in enumerate(self._levels) if level is not None)


class TruncDihedralSet:
    """A degreewise-finite truncation of a simplicial set with optional
    rotation and reflection.

    ``flag`` records which identities the maps are claimed to satisfy:
    ``"simplicial"``, ``"real"`` (reflection with the real identities),
    ``"cyclic"`` (rotation), ``"dihedral"`` (both), or ``"levelwise"``
    (rotation/reflection merely commute with faces and degeneracies, as on
    edgewise subdivisions).  ``nondegenerate_bound``, an int or None,
    optionally records a proven degree bound above which every simplex is
    degenerate, making the truncation lossless for nondegenerate data.

    ``simplices`` is either the list of levels or a function ``q -> level``;
    a function's levels are built on first read.  Either way each level is
    stored sorted and without repeats.  An object may also bring its own
    ``nondegenerate_levels(q)`` and ``level_count(q)``.  Then ``count(q)`` is
    ``level_count(q)``, checked against the nondegenerate simplices by the
    Eilenberg-Zilber decomposition ``count(q) = sum_p C(q, p) * #nondeg(p)``
    and, whenever level ``q`` is built, against its length; a disagreement
    raises :class:`CertificateError`.  ``fixed_levels``, when given, is a
    pair ``(generate, count)`` of functions of the degree: the simplices
    fixed by the reflection and their number, which :func:`fixed_subset`
    uses instead of filtering the levels.
    """

    __slots__ = (
        "q_max",
        "simplices",
        "_face",
        "_degeneracy",
        "_rotate",
        "_invol",
        "flag",
        "cyclic_order",
        "nondegenerate_bound",
        "_nondegenerate_levels",
        "_nondegenerate",
        "_level_count",
        "_fixed_levels",
    )

    def __init__(
        self,
        q_max,
        simplices,
        face,
        degeneracy,
        rotate=None,
        invol=None,
        flag="simplicial",
        cyclic_order=None,
        nondegenerate_bound=None,
        nondegenerate_levels=None,
        level_count=None,
        fixed_levels=None,
    ):
        if q_max < 0:
            raise SpecError("truncation depth must be nonnegative")
        self.q_max = q_max
        self._level_count = level_count
        if callable(simplices):
            self.simplices = SimplexLevels(
                q_max + 1, lambda q: self._built_level(q, simplices(q))
            )
        else:
            if len(simplices) != q_max + 1:
                raise SpecError(
                    f"expected {q_max + 1} simplex levels, got {len(simplices)}"
                )
            self.simplices = tuple(tuple(sorted(set(level))) for level in simplices)
        self._face = face
        self._degeneracy = degeneracy
        self._rotate = rotate
        self._invol = invol
        self.flag = flag
        self.cyclic_order = cyclic_order
        self.nondegenerate_bound = nondegenerate_bound
        self._nondegenerate_levels = nondegenerate_levels
        self._nondegenerate = [None] * (q_max + 1)
        self._fixed_levels = fixed_levels

    def _built_level(self, q, level):
        level = tuple(sorted(set(level)))
        if self._level_count is not None and len(level) != self._level_count(q):
            raise CertificateError(
                f"degree {q}: {len(level)} simplices built but "
                f"{self._level_count(q)} counted"
            )
        return level

    # -- structure maps ----------------------------------------------------

    def face(self, q, i, x):
        if not (1 <= q <= self.q_max and 0 <= i <= q):
            raise SpecError(f"face d_{i} undefined in degree {q}")
        return self._face(q, i, x)

    def faces(self, q, x):
        """The faces ``d_0 x, ..., d_q x`` of a ``q``-simplex, in order,
        through the face rule of the object with the degree checked once."""
        if not 1 <= q <= self.q_max:
            raise SpecError(f"faces undefined in degree {q}")
        face = self._face
        return [face(q, i, x) for i in range(q + 1)]

    def degeneracy(self, q, i, x):
        if not (0 <= q < self.q_max and 0 <= i <= q):
            raise SpecError(f"degeneracy s_{i} undefined in degree {q}")
        return self._degeneracy(q, i, x)

    def rotate(self, q, x):
        if self._rotate is None:
            raise SpecError("no rotation on this object")
        return self._rotate(q, x)

    def invol(self, q, x):
        if self._invol is None:
            raise SpecError("no reflection on this object")
        return self._invol(q, x)

    @property
    def has_rotation(self):
        return self._rotate is not None

    @property
    def has_involution(self):
        return self._invol is not None

    def count(self, q):
        if self._level_count is None:
            return len(self.simplices[q])
        n = self._level_count(q)
        split = sum(comb(q, p) * len(self.nondegenerate(p)) for p in range(q + 1))
        if n != split:
            raise CertificateError(
                f"degree {q}: {n} simplices counted but the nondegenerate "
                f"simplices of degrees 0..{q} give {split} (Eilenberg-Zilber)"
            )
        return n

    def is_degenerate(self, q, x):
        """Whether ``x`` is in the image of some degeneracy (tested via the
        retraction ``s_i d_i``)."""
        if q == 0:
            return False
        return any(
            self._degeneracy(q - 1, i, self._face(q, i, x)) == x for i in range(q)
        )

    def nondegenerate(self, q):
        if self._nondegenerate_levels is None:
            return tuple(x for x in self.simplices[q] if not self.is_degenerate(q, x))
        level = self._nondegenerate[q]
        if level is None:
            level = self._nondegenerate[q] = tuple(
                sorted(set(self._nondegenerate_levels(q)))
            )
        return level

    def nondegenerate_counts(self):
        return tuple(len(self.nondegenerate(q)) for q in range(self.q_max + 1))

    def __repr__(self):
        counts = ", ".join(str(self.count(q)) for q in range(self.q_max + 1))
        return f"TruncDihedralSet({self.flag}, q_max={self.q_max}, counts=[{counts}])"


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


class StructureReport(NamedTuple):
    ok: bool
    detail: str = "all identities hold"

    def __bool__(self):
        return self.ok


def validate_structure(x):
    """Check every claimed identity on every stored simplex.

    Face-only identities run in all degrees; identities passing through
    degree ``q+1`` run for ``q < q_max``.  Closure of every map in the
    stored simplex sets is checked first.  The first violation is reported
    with the identity, the degree and the simplex.
    """
    fail = _validate(x)
    if fail is None:
        return StructureReport(True)
    return StructureReport(False, fail)


def _validate(x):
    sets = [set(level) for level in x.simplices]
    for q in range(x.q_max + 1):
        for s in x.simplices[q]:
            if q >= 1:
                for i in range(q + 1):
                    if x.face(q, i, s) not in sets[q - 1]:
                        return f"d_{i} leaves the simplex set at degree {q} on {s}"
            if q < x.q_max:
                for i in range(q + 1):
                    if x.degeneracy(q, i, s) not in sets[q + 1]:
                        return f"s_{i} leaves the simplex set at degree {q} on {s}"
            if x.has_rotation and x.rotate(q, s) not in sets[q]:
                return f"rotation leaves the simplex set at degree {q} on {s}"
            if x.has_involution and x.invol(q, s) not in sets[q]:
                return f"reflection leaves the simplex set at degree {q} on {s}"

    for q in range(x.q_max + 1):
        for s in x.simplices[q]:
            err = _simplicial_identities(x, q, s)
            if err:
                return err
            if x.flag in ("cyclic", "dihedral"):
                err = _cyclic_identities(x, q, s)
                if err:
                    return err
            if x.flag in ("real", "dihedral"):
                err = _real_identities(x, q, s)
                if err:
                    return err
            if x.flag == "dihedral":
                lhs = x.invol(q, x.rotate(q, s))
                rhs = x.invol(q, s)
                for _ in range(q):
                    rhs = x.rotate(q, rhs)
                if lhs != rhs:
                    return f"w t != t^-1 w at degree {q} on {s}"
            if x.flag == "levelwise":
                err = _levelwise_identities(x, q, s)
                if err:
                    return err
    return None


def _simplicial_identities(x, q, s):
    if q >= 2:
        for j in range(q + 1):
            for i in range(j):
                if x.face(q - 1, i, x.face(q, j, s)) != x.face(
                    q - 1, j - 1, x.face(q, i, s)
                ):
                    return f"d_{i} d_{j} != d_{j-1} d_{i} at degree {q} on {s}"
    if q < x.q_max:
        for j in range(q + 1):
            sj = x.degeneracy(q, j, s)
            for i in range(q + 2):
                got = x.face(q + 1, i, sj)
                if i < j:
                    want = x.degeneracy(q - 1, j - 1, x.face(q, i, s))
                elif i in (j, j + 1):
                    want = s
                else:
                    want = x.degeneracy(q - 1, j, x.face(q, i - 1, s))
                if got != want:
                    return f"d_{i} s_{j} identity fails at degree {q} on {s}"
    if q + 2 <= x.q_max:
        for j in range(q + 1):
            for i in range(j + 1):
                lhs = x.degeneracy(q + 1, i, x.degeneracy(q, j, s))
                rhs = x.degeneracy(q + 1, j + 1, x.degeneracy(q, i, s))
                if lhs != rhs:
                    return f"s_{i} s_{j} != s_{j+1} s_{i} at degree {q} on {s}"
    return None


def _cyclic_identities(x, q, s):
    t = x.rotate(q, s)
    out = s
    for _ in range(q + 1):
        out = x.rotate(q, out)
    if out != s:
        return f"t^{q+1} != id at degree {q} on {s}"
    if q >= 1:
        if x.face(q, 0, t) != x.face(q, q, s):
            return f"d_0 t != d_q at degree {q} on {s}"
        for i in range(1, q + 1):
            if x.face(q, i, t) != x.rotate(q - 1, x.face(q, i - 1, s)):
                return f"d_{i} t != t d_{i-1} at degree {q} on {s}"
    if q < x.q_max:
        for i in range(1, q + 1):
            if x.degeneracy(q, i, t) != x.rotate(q + 1, x.degeneracy(q, i - 1, s)):
                return f"s_{i} t != t s_{i-1} at degree {q} on {s}"
        twice = x.rotate(q + 1, x.rotate(q + 1, x.degeneracy(q, q, s)))
        if x.degeneracy(q, 0, t) != twice:
            return f"s_0 t != t^2 s_q at degree {q} on {s}"
    return None


def _real_identities(x, q, s):
    w = x.invol(q, s)
    if x.invol(q, w) != s:
        return f"w^2 != id at degree {q} on {s}"
    if q >= 1:
        for i in range(q + 1):
            if x.face(q, i, w) != x.invol(q - 1, x.face(q, q - i, s)):
                return f"d_{i} w != w d_{q-i} at degree {q} on {s}"
    if q < x.q_max:
        for i in range(q + 1):
            if x.degeneracy(q, i, w) != x.invol(q + 1, x.degeneracy(q, q - i, s)):
                return f"s_{i} w != w s_{q-i} at degree {q} on {s}"
    return None


def _levelwise_identities(x, q, s):
    maps = []
    if x.has_rotation:
        maps.append(("rotation", x.rotate, x.cyclic_order or 1))
    if x.has_involution:
        maps.append(("reflection", x.invol, 2))
    for name, op, order in maps:
        out = s
        for _ in range(order):
            out = op(q, out)
        if out != s:
            return f"levelwise {name} does not have order {order} at degree {q} on {s}"
        if q >= 1:
            for i in range(q + 1):
                if x.face(q, i, op(q, s)) != op(q - 1, x.face(q, i, s)):
                    return (
                        f"levelwise {name} does not commute with d_{i} "
                        f"at degree {q} on {s}"
                    )
        if q < x.q_max:
            for i in range(q + 1):
                if x.degeneracy(q, i, op(q, s)) != op(q + 1, x.degeneracy(q, i, s)):
                    return (
                        f"levelwise {name} does not commute with s_{i} "
                        f"at degree {q} on {s}"
                    )
    return None


# ---------------------------------------------------------------------------
# monoid nerves
# ---------------------------------------------------------------------------


def _vec_add(a, b):
    return tuple(map(add, a, b))


def _l1(v):
    return sum(abs(c) for c in v)


def _total(x):
    t = x[0]
    for e in x[1:]:
        t = _vec_add(t, e)
    return t


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class _DivisorFibers:
    """The tuples of monoid elements summing to a weight of one orbit,
    built from the divisor sets ``D(v) = {x in M : v - x in M}``.

    Every entry and every partial sum of such a tuple lies in ``D(v)``, so
    the splittings ``parts[d]`` of each ``d`` in ``D(v)`` into two monoid
    elements generate the tuples and count them.  ``D(v)`` is the fiber of
    pairs summing to ``v``; it raises :class:`InfeasibleError` when that
    fiber is infinite, as the level of 1-simplices would.

    The tuples fixed by the reflection ``sigma`` of the nerve are built
    from their first half: see :meth:`fixed_tuples`.
    """

    def __init__(self, monoid, orbit, sigma):
        self.zero = (0,) * monoid.rank
        self.sigma = sigma
        self.weights = []
        self.parts = {}
        for v in orbit:
            divisors = [x for x, _ in weight_tuples(monoid, v, 2)]
            if divisors:  # otherwise v is not in the monoid
                self.weights.append(v)
            known = set(divisors)
            for d in divisors:
                if d not in self.parts:
                    splits = ((x, _vec_sub(d, x)) for x in divisors)
                    self.parts[d] = tuple(p for p in splits if p[1] in known)
        # _counts[k][d]: the number of (k+1)-tuples summing to d
        self._counts = [dict.fromkeys(self.parts, 1)]
        self._frames = None

    def _table(self, length):
        """The number of ``length``-tuples summing to each ``d``, keyed by
        ``d``, ``length >= 1``."""
        counts = self._counts
        while len(counts) < length:
            last = counts[-1]
            counts.append({
                d: sum(last[rest] for _, rest in parts)
                for d, parts in self.parts.items()
            })
        return counts[length - 1]

    def count(self, length):
        """The number of ``length``-tuples, ``length >= 1``."""
        table = self._table(length)
        return sum(table[v] for v in self.weights)

    def tuples(self, length, nondegenerate=False, start=None):
        """The ``length``-tuples, ``length >= 1``, in lexicographic order
        for each weight, or for each sum in ``start`` when given.  With
        ``nondegenerate``, only those whose entries after the first are
        nonzero: the degeneracies insert exactly those zeros."""
        zero = self.zero
        rows = [((), v) for v in (self.weights if start is None else start)]
        for pos in range(length - 1):
            skip_zero = nondegenerate and pos > 0
            rows = [
                (prefix + (x,), rest)
                for prefix, left in rows
                for x, rest in self.parts[left]
                if not (skip_zero and x == zero)
            ]
        skip_zero = nondegenerate and length > 1
        return [prefix + (left,) for prefix, left in rows
                if not (skip_zero and left == zero)]

    def _mirror_frames(self):
        """The triples ``(x_0, h, m)`` of elements with ``x_0`` fixed by
        ``sigma`` and ``x_0 + h + sigma(h) + m`` a fixed weight, which makes
        ``m`` fixed too."""
        if self._frames is None:
            sigma, parts = self.sigma, self.parts
            self._frames = [
                (x0, h, m)
                for v in self.weights if sigma(v) == v
                for x0, rest in parts[v] if sigma(x0) == x0
                for h, tail in parts[rest]
                for m in (_vec_sub(tail, sigma(h)),) if m in parts
            ]
        return self._frames

    def _frames_of_degree(self, n):
        """The length of the half of a fixed ``(n+1)``-tuple, and its
        frames as ``(x_0, h, middle)``: ``(m,)`` for odd ``n``, and ``()``
        for even ``n``, which has no middle entry, so ``m`` is zero."""
        half, odd = divmod(n, 2)
        return half, [
            (x0, h, (m,) if odd else ())
            for x0, h, m in self._mirror_frames() if odd or m == self.zero
        ]

    def fixed_tuples(self, n):
        """The ``(n+1)``-tuples fixed by the reflection
        ``(x_0, ..., x_n) -> (s x_0, s x_n, ..., s x_1)``.

        Such a tuple has ``x_0`` fixed, ``x_{n+1-i} = s(x_i)`` for
        ``1 <= i <= n // 2`` and, for odd ``n``, a fixed middle entry
        ``m``.  So it is ``x_0``, a half summing to some ``h``, the middle
        and the reflected half reversed, over the frames ``(x_0, h, m)``;
        each half comes from :meth:`tuples` started at ``h``."""
        sigma = self.sigma
        half, frames = self._frames_of_degree(n)
        if half:
            halves = {h: self.tuples(half, start=(h,)) for h in {f[1] for f in frames}}
        else:
            halves = {self.zero: [()]}
        return [
            (x0,) + part + middle + tuple(sigma(e) for e in reversed(part))
            for x0, h, middle in frames
            for part in halves.get(h, ())
        ]

    def fixed_count(self, n):
        """The number of :meth:`fixed_tuples` of length ``n + 1``, by the
        dynamic program of :meth:`count` over the halves."""
        half, frames = self._frames_of_degree(n)
        table = self._table(half) if half else {self.zero: 1}
        return sum(table.get(h, 0) for _, h, _ in frames)


def _signed_permutation_sigma(monoid):
    """The involution as a coordinate map, required to preserve l1 norms."""
    w = monoid.w
    n = monoid.rank
    for i in range(n):
        nonzero = [abs(c) for c in w.row(i) if c]
        if nonzero != [1]:
            raise SpecError(
                "windowed truncations require a signed-permutation involution"
            )
    return lambda v: monoid.apply_w(v)


def windowed_simplex_tuples(ball, slots, bound):
    """All ``slots``-tuples of monoid elements of total l1 norm <= bound,
    drawn from ``ball = elements_in_ball(monoid, bound)``."""
    per = {b: [v for v in ball if _l1(v) <= b] for b in range(bound + 1)}
    out = []

    def rec(prefix, remaining):
        if len(prefix) == slots:
            out.append(tuple(prefix))
            return
        for v in per[remaining]:
            rec(prefix + [v], remaining - _l1(v))

    rec([], bound)
    return out


def normalize_orbit(monoid, orbit):
    """The involution orbit as a sorted tuple of weight vectors.

    ``orbit`` is an iterable of vectors; it is completed under the
    involution and must not meet more than one orbit.
    """
    vecs = sorted({tuple(v) for v in orbit})
    if not vecs:
        raise SpecError("empty weight orbit")
    full = sorted({vecs[0], monoid.apply_w(vecs[0])})
    if any(v not in full for v in vecs):
        raise SpecError(f"{vecs} meets more than one involution orbit")
    return tuple(full)


def pointedness_bound(monoid, orbit):
    """The largest ``int(lam . v)`` over the weights ``v`` of an orbit, for
    the pointedness functional ``lam`` of the monoid: a simplex of the
    orbit's nerve piece in a degree above it is degenerate when the monoid
    has no units.

    Raises:
        InfeasibleError: if the monoid has no pointedness functional.
    """
    lam = pointedness_functional(monoid)
    return max(int(sum(l * c for l, c in zip(lam, v))) for v in orbit)


def dihedral_nerve_piece(monoid, orbit, q_max, window=None):
    """The weight piece of the cyclic bar construction of a monoid, as a
    truncated dihedral set.

    Args:
        monoid: an :class:`AffineMonoid`.
        orbit: one involution orbit of weight vectors, as an iterable of
            vectors.
        q_max: truncation depth.
        window: optional bound on the total l1 norm of a simplex; required
            when the weight fibers are infinite (the maps preserve the
            window, so the truncation is an honest subobject).

    Without a window (and ``q_max >= 1``) the levels come from the divisor
    sets of the orbit weights: a level is built only when first read, the
    nondegenerate simplices (entries after the first nonzero) are generated
    directly, and ``count(q)`` is a dynamic program over the divisor sets,
    cross-checked as :class:`TruncDihedralSet` describes.  The simplices
    fixed by the reflection are generated and counted the same way, as
    ``fixed_levels``, for :func:`sd_sigma` and :func:`fixed_subset`.

    Raises:
        InfeasibleError: if a fiber is infinite and no window is given.
    """
    orbit = normalize_orbit(monoid, orbit)
    if window is not None:
        sigma = _signed_permutation_sigma(monoid)
    else:
        reflected = {}  # the piece's entries are a few distinct vectors

        def sigma(v):
            w = reflected.get(v)
            if w is None:
                w = reflected[v] = monoid.apply_w(v)
            return w

    generated = {}
    if window is not None:
        orbit_set = set(orbit)
        ball = elements_in_ball(monoid, window)
        levels = [
            [tup for tup in windowed_simplex_tuples(ball, q + 1, window)
             if _total(tup) in orbit_set]
            for q in range(q_max + 1)
        ]
    elif q_max == 0:
        # The vertices alone: their fiber is finite even where D(v) is not.
        levels = [[t for v in orbit for t in weight_tuples(monoid, v, 1)]]
    else:
        fibers = _DivisorFibers(monoid, orbit, sigma)

        def levels(q):
            return fibers.tuples(q + 1)

        generated = dict(
            nondegenerate_levels=lambda q: fibers.tuples(q + 1, nondegenerate=True),
            level_count=lambda q: fibers.count(q + 1),
            fixed_levels=(fibers.fixed_tuples, fibers.fixed_count),
        )

    zero = tuple([0] * monoid.rank)

    def face(q, i, x):
        if i < q:
            return x[:i] + (_vec_add(x[i], x[i + 1]),) + x[i + 2 :]
        return (_vec_add(x[q], x[0]),) + x[1:q]

    def degeneracy(q, i, x):
        return x[: i + 1] + (zero,) + x[i + 1 :]

    def rotate(q, x):
        return (x[q],) + x[:q]

    def invol(q, x):
        return (sigma(x[0]),) + tuple(sigma(e) for e in reversed(x[1:]))

    bound = None
    has_units = any(
        tuple(-c for c in g) in set(monoid.generators) for g in monoid.generators
    )
    if window is None and not has_units:
        try:
            bound = pointedness_bound(monoid, orbit)
        except InfeasibleError:  # pragma: no cover - no functional, no bound
            bound = None

    return TruncDihedralSet(
        q_max,
        levels,
        face,
        degeneracy,
        rotate=rotate,
        invol=invol,
        flag="dihedral",
        nondegenerate_bound=bound,
        **generated,
    )


def circle_model(q_max=3):
    """The minimal real simplicial circle: one nondegenerate simplex in
    degrees zero and one, identity reflection on both.

    Simplices in degree ``q`` are the basepoint ``('P',)`` and the jump
    classes ``('J', j)`` for ``1 <= j <= q`` (the nonconstant monotone maps
    to the one-simplex, recorded by where they jump).
    """
    levels = [
        [("P",)] + [("J", j) for j in range(1, q + 1)] for q in range(q_max + 1)
    ]

    def face(q, i, x):
        if x[0] == "P":
            return x
        j = x[1]
        if i < j:
            return ("P",) if j - 1 == 0 else ("J", j - 1)
        return ("P",) if j > q - 1 else ("J", j)

    def degeneracy(q, i, x):
        if x[0] == "P":
            return x
        j = x[1]
        return ("J", j + 1) if i < j else ("J", j)

    def invol(q, x):
        if x[0] == "P":
            return x
        return ("J", q + 1 - x[1])

    return TruncDihedralSet(
        q_max,
        levels,
        face,
        degeneracy,
        invol=invol,
        flag="real",
        nondegenerate_bound=1,
    )


def trivial_monoid():
    """The one-element monoid inside ``Z``."""
    return AffineMonoid([], rank=1)


# ---------------------------------------------------------------------------
# operator algebra and edgewise subdivision
# ---------------------------------------------------------------------------


def apply_monotone(x, n, mu, s):
    """Act by a monotone map ``mu: [m] -> [n]`` on a degree-``n`` simplex
    through the epi-mono factorization: strip duplicates into degeneracies,
    then apply the skipped values as faces from the largest down."""
    mu = tuple(mu)
    for a in range(len(mu) - 1):
        if mu[a] == mu[a + 1]:
            inner = apply_monotone(x, n, mu[:a] + mu[a + 1 :], s)
            return x.degeneracy(len(mu) - 2, a, inner)
    out = s
    deg = n
    for b in sorted(set(range(n + 1)) - set(mu), reverse=True):
        out = x.face(deg, b, out)
        deg -= 1
    return out


def _d_sigma(alpha, q):
    """The squaring-subdivision lift of ``alpha: [p] -> [q]``."""
    p = len(alpha) - 1
    return tuple(
        q - alpha[p - a] if a <= p else alpha[a - p - 1] + q + 1
        for a in range(2 * p + 2)
    )


def _d_r(alpha, q, r):
    """The r-fold cyclic-subdivision lift of ``alpha: [p] -> [q]``."""
    p = len(alpha) - 1
    return tuple(
        alpha[a % (p + 1)] + (a // (p + 1)) * (q + 1)
        for a in range(r * (p + 1))
    )


def _delta(q, i):
    """The face inclusion ``[q-1] -> [q]`` skipping ``i``, as values."""
    return tuple(v for v in range(q + 1) if v != i)


def _sigma_map(q, i):
    """The degeneracy ``[q+1] -> [q]`` repeating ``i``, as values."""
    return tuple(v if v <= i else v - 1 for v in range(q + 2))


def _edgewise(x, r, lift, **structure):
    """The edgewise subdivision whose degree ``q`` is the input's degree
    ``r(q+1) - 1``, each monotone map ``alpha: [p] -> [q]`` acting through
    ``lift(alpha, q)``, as deep as the input allows; ``structure`` (the
    reflection or rotation, on the input's degrees) goes to
    :class:`TruncDihedralSet` as it is."""
    q_out = (x.q_max + 1) // r - 1
    if q_out < 0:
        raise SpecError(
            f"insufficient truncation depth {x.q_max} for output depth {q_out}"
        )

    def levels(q):
        return x.simplices[r * (q + 1) - 1]

    def face(q, i, s):
        return apply_monotone(x, r * (q + 1) - 1, lift(_delta(q, i), q), s)

    def degeneracy(q, i, s):
        return apply_monotone(x, r * (q + 1) - 1, lift(_sigma_map(q, i), q), s)

    return TruncDihedralSet(
        q_out, levels, face, degeneracy, flag="levelwise", **structure
    )


def sd_sigma(x):
    """Squaring edgewise subdivision: degree ``q`` becomes old degree
    ``2q+1``, with the levelwise reflection of the input, as deep as the
    input allows.

    The lifted operators are fixed under conjugation by the order reversal,
    so the reflection commutes with every subdivided face and degeneracy.

    When the input brings ``fixed_levels`` (a nerve piece without a
    window), the output brings those of the input's degree ``2q+1`` as its
    own, and :func:`fixed_subset` generates and counts the fixed simplices
    without building a level of the input.  Otherwise (a windowed piece, a
    hand-built set) it filters the levels.
    """
    if not x.has_involution:
        raise SpecError("sd_sigma needs a reflection on the input")

    def invol(q, s):
        return x.invol(2 * q + 1, s)

    fixed_levels = None
    if x._fixed_levels is not None:
        generate, count = x._fixed_levels
        fixed_levels = (lambda q: generate(2 * q + 1), lambda q: count(2 * q + 1))

    return _edgewise(x, 2, _d_sigma, invol=invol, fixed_levels=fixed_levels)


def sd_r(x, r):
    """r-fold cyclic edgewise subdivision: degree ``q`` becomes old degree
    ``r(q+1) - 1``, with the levelwise ``C_r``-action ``t**(q+1)``, as deep
    as the input allows.

    The input reflection (if any) is not carried over: it does not act
    simplicially on this subdivision.
    """
    if r < 1:
        raise SpecError("subdivision order must be at least 1")
    if not x.has_rotation:
        raise SpecError("sd_r needs a rotation on the input")

    def rotate(q, s):
        out = s
        for _ in range(q + 1):
            out = x.rotate(r * (q + 1) - 1, out)
        return out

    return _edgewise(
        x, r, lambda alpha, q: _d_r(alpha, q, r), rotate=rotate, cyclic_order=r
    )


def fixed_subset(x):
    """The simplices fixed by the levelwise reflection, with the restricted
    structure maps.

    When ``x`` brings ``fixed_levels`` (``sd_sigma`` of a nerve piece
    without a window), each fixed level is generated and counted by them,
    built only when first read, and checked against its count.  Otherwise
    (windowed pieces, hand-built sets) every level of ``x`` is filtered at
    once.  Either way each fixed level, as it is built, is checked to be
    closed: each of its simplices, and every face and degeneracy of one, is
    fixed.

    Raises:
        CertificateError: if a generated simplex is not fixed, or a
            structure map fails to preserve the fixed simplices — that
            would mean the input action was not simplicial.  A filtered
            level raises here, a generated one when it is first read.
    """
    if not x.has_involution:
        raise SpecError("fixed_subset needs a reflection")

    def is_fixed(q, s):
        return x.invol(q, s) == s

    if x._fixed_levels is not None:
        generate, level_count = x._fixed_levels
    else:
        level_count = None

        def generate(q):
            return [s for s in x.simplices[q] if is_fixed(q, s)]

    def level(q):
        found = generate(q)
        for s in found:
            if not is_fixed(q, s):
                raise CertificateError(f"{s} is not fixed at degree {q}")
            if q >= 1:
                for i in range(q + 1):
                    if not is_fixed(q - 1, x.face(q, i, s)):
                        raise CertificateError(
                            f"face d_{i} leaves the fixed simplices at degree "
                            f"{q} on {s}"
                        )
            if q < x.q_max:
                for i in range(q + 1):
                    if not is_fixed(q + 1, x.degeneracy(q, i, s)):
                        raise CertificateError(
                            f"degeneracy s_{i} leaves the fixed simplices at "
                            f"degree {q} on {s}"
                        )
        return found

    fixed = TruncDihedralSet(
        x.q_max,
        level,
        x._face,
        x._degeneracy,
        invol=x._invol,
        flag="levelwise",
        level_count=level_count,
    )
    if level_count is None:
        list(fixed.simplices)  # a filtered level is checked at once
    return fixed


# ---------------------------------------------------------------------------
# path components
# ---------------------------------------------------------------------------


def pi0(x):
    """The number of path components of the truncation: vertices modulo
    edge endpoints, by union-find."""
    parent = {v: v for v in x.simplices[0]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in x.simplices[1] if x.q_max >= 1 else ():
        ra, rb = find(x.face(1, 0, e)), find(x.face(1, 1, e))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return len({find(v) for v in parent})


# ---------------------------------------------------------------------------
# witnesses for the structural comparison maps
# ---------------------------------------------------------------------------


class ComparisonWitness(NamedTuple):
    ok: bool
    degree_counts: tuple
    detail: str = "bijective and structure-compatible"

    def __bool__(self):
        return self.ok


def _first_incompatibility(source, phi, face, degeneracy, rotate, invol):
    """The first structure map of ``source`` that ``phi`` does not carry to
    the given target map, as a detail string, or None.

    Simplices are visited degree by degree; for each simplex ``x`` the
    faces, the degeneracies, the rotation (skipped when ``rotate`` is None)
    and the reflection are checked in that order, each as
    ``phi(source.map(x)) == map(phi(x))``.
    """
    q_max = source.q_max
    for q in range(q_max + 1):
        for x in source.simplices[q]:
            y = phi(x)
            if q >= 1:
                for i in range(q + 1):
                    if phi(source.face(q, i, x)) != face(q, i, y):
                        return f"face d_{i} incompatible at {x}"
            if q < q_max:
                for i in range(q + 1):
                    if phi(source.degeneracy(q, i, x)) != degeneracy(q, i, y):
                        return f"s_{i} incompatible at {x}"
            if rotate is not None and phi(source.rotate(q, x)) != rotate(q, y):
                return f"rotation incompatible at {x}"
            if phi(source.invol(q, x)) != invol(q, y):
                return f"reflection incompatible at {x}"
    return None


def shuffle_iso_check(m, l, pair, q_max, window=None):
    """Verify that splitting a product-monoid nerve piece into its two
    coordinate projections is a bijection compatible with all four
    structure maps.

    ``pair = (v_m, v_l)`` are representative weights.  The image is the set
    of simplex pairs whose weight pair lies in the involution orbit of
    ``(v_m, v_l)`` (with the joint window bound when windowed); for a
    singleton orbit and no window this is the full product of the pieces.
    """
    v_m, v_l = tuple(pair[0]), tuple(pair[1])
    rank_m, rank_l = m.rank, l.rank
    gens = ([g + (0,) * rank_l for g in m.generators]
            + [(0,) * rank_m + g for g in l.generators])
    w = ([dict(row) for row in m.w.sparse]
         + [{rank_m + j: a for j, a in row} for row in l.w.sparse])
    prod = AffineMonoid(gens, w=w, rank=rank_m + rank_l)

    lhs = dihedral_nerve_piece(prod, (v_m + v_l,), q_max, window=window)
    piece_m = dihedral_nerve_piece(m, (v_m,), q_max, window=window)
    piece_l = dihedral_nerve_piece(l, (v_l,), q_max, window=window)
    orbit = set(normalize_orbit(prod, (v_m + v_l,)))

    def split(x):
        return (
            tuple(e[:rank_m] for e in x),
            tuple(e[rank_m:] for e in x),
        )

    counts = []
    for q in range(q_max + 1):
        image = {split(x) for x in lhs.simplices[q]}
        if len(image) != lhs.count(q):
            return ComparisonWitness(
                False, tuple(counts), f"shuffle not injective at degree {q}"
            )
        expected = set()
        with_m = [(a, _total(a), sum(_l1(e) for e in a)) for a in piece_m.simplices[q]]
        with_l = [(b, _total(b), sum(_l1(e) for e in b)) for b in piece_l.simplices[q]]
        for a, ta, na in with_m:
            for b, tb, nb in with_l:
                if ta + tb not in orbit:
                    continue
                if window is not None and na + nb > window:
                    continue
                expected.add((a, b))
        if image != expected:
            return ComparisonWitness(
                False,
                tuple(counts),
                f"shuffle image mismatch at degree {q}: "
                f"{len(image)} vs {len(expected)} simplices",
            )
        counts.append(len(image))

    detail = _first_incompatibility(
        lhs, split,
        lambda q, i, p: (piece_m.face(q, i, p[0]), piece_l.face(q, i, p[1])),
        lambda q, i, p: (piece_m.degeneracy(q, i, p[0]), piece_l.degeneracy(q, i, p[1])),
        lambda q, p: (piece_m.rotate(q, p[0]), piece_l.rotate(q, p[1])),
        lambda q, p: (piece_m.invol(q, p[0]), piece_l.invol(q, p[1])),
    )
    if detail is not None:
        return ComparisonWitness(False, tuple(counts), detail)
    return ComparisonWitness(True, tuple(counts))


# ---------------------------------------------------------------------------
# power maps into cyclic subdivisions
# ---------------------------------------------------------------------------


class PowerMapWitness(NamedTuple):
    ok: bool
    degree_counts: tuple
    empty_weights: tuple
    detail: str = "bijective onto the fixed simplices, structure-compatible"

    def __bool__(self):
        return self.ok


def _periodic_tuples(monoid, total, r, period):
    """The tuples of ``r * period`` monoid elements summing to ``total``
    that repeat with period ``period``: the r-fold repeats of the blocks
    summing to ``total / r``, so none unless ``r`` divides ``total``."""
    if any(c % r for c in total):
        return []
    block = tuple(c // r for c in total)
    return [b * r for b in weight_tuples(monoid, block, period)]


def power_map_fixed_iso_check(nat, j, r, q_max):
    """Verify that r-fold concatenation identifies the weight-``j`` nerve
    piece of the nonnegative integers ``nat`` (``monoid_nat()``, passed in
    so that callers share its weight-fiber memo) with the ``C_r``-fixed
    simplices of the r-fold subdivision of the weight-``rj`` piece,
    compatibly with all structure maps — and that the fixed simplices are
    empty for the weights strictly between multiples of ``r``.

    A simplex of ``sd_r`` is fixed by its rotation exactly when its entries
    repeat with period ``q + 1``, so the fixed simplices are enumerated as
    r-fold repeats of weight-fiber blocks; each is checked for length,
    weight and ``sub.rotate(q, s) == s`` before the comparison with the
    image of the power map.
    """
    if j < 0 or r < 1:
        raise SpecError("need j >= 0 and r >= 1")
    big_depth = r * (q_max + 1) - 1
    small = dihedral_nerve_piece(nat, ((j,),), q_max)
    big = dihedral_nerve_piece(nat, ((r * j,),), big_depth)
    sub = sd_r(big, r)

    def power(x):
        return x * r

    counts = []
    for q in range(q_max + 1):
        fixed = set()
        for s in _periodic_tuples(nat, (r * j,), r, q + 1):
            if (len(s) != r * (q + 1) or _total(s) != (r * j,)
                    or sub.rotate(q, s) != s):
                return PowerMapWitness(
                    False,
                    tuple(counts),
                    (),
                    f"{s} is not a C_{r}-fixed simplex of weight {r * j} "
                    f"at degree {q}",
                )
            fixed.add(s)
        image = {power(x) for x in small.simplices[q]}
        if image != fixed:
            return PowerMapWitness(
                False,
                tuple(counts),
                (),
                f"power map not bijective at degree {q}: "
                f"{len(image)} vs {len(fixed)}",
            )
        counts.append(len(fixed))

    detail = _first_incompatibility(
        small, power, sub.face, sub.degeneracy,
        lambda q, y: big.rotate(r * (q + 1) - 1, y),
        lambda q, y: big.invol(r * (q + 1) - 1, y),
    )
    if detail is not None:
        return PowerMapWitness(False, tuple(counts), (), detail)

    empties = []
    if r > 1:
        for weight in range(r * j + 1, r * j + r):
            for q in range(q_max + 1):
                found = _periodic_tuples(nat, (weight,), r, q + 1)
                if found:
                    return PowerMapWitness(
                        False,
                        tuple(counts),
                        tuple(empties),
                        f"unexpected fixed simplex of weight {weight} "
                        f"at degree {q}: {found[0]}",
                    )
            empties.append(weight)
    return PowerMapWitness(True, tuple(counts), tuple(empties))
