"""The zeroth equivariant homotopy of real topological Hochschild homology
of a commutative ring with trivial involution, as a Mackey functor.

For a commutative ring ``A`` the object computed here has underlying level
``A`` with identity involution and fixed level ``(A (x) A) / T``, where ``T``
is the subgroup generated by

    ``x (x) a^2 y  -  a^2 x (x) y``      and      ``x (x) 2a y  -  2a x (x) y``

for ``a, x, y in A``: the slides ``c x (x) y - x (x) c y`` of ``c = -a^2``
and ``c = -2a``, so the fixed level is one ``balanced_tensor``.
Restriction multiplies the two tensor factors and transfer sends ``a`` to
``2a (x) 1``.  Because the two kinds of relation are additive in ``a``
after expanding squares (the cross terms are exactly the doubled
relations), spanning over generator triples is enough; a unit test
compares against the span over all element triples for small rings.

The fixed level sits in a short exact sequence

    ``0 -> 2A -> (A (x) A)/T -> A/2 (x)_phi A/2 -> 0``

whose right-hand side is the quotient of ``A/2 (x) A/2`` by moving squares
across the tensor sign, i.e. the Frobenius-twisted square.  The unit
comparison ``a -> 1 (x) a`` into the fixed level is an isomorphism exactly
when the Frobenius of ``A/2`` is surjective; both routes are computed
independently and any disagreement raises :class:`CertificateError`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CertificateError, SpecError
from .fgab import (
    ExactnessReport,
    Mat,
    _kernel_lattice,
    balanced_tensor,
    free_group,
    group,
    hom,
    identity_hom,
    inverse,
    is_exact,
    kron,
    vstack,
)
from .involutive_algebra import (
    InvolutiveRing,
    _unit_vec,
    frobenius,
    mod2,
)
from .mackey import (
    MackeyHom,
    MackeyZ2,
    ModuleStructure,
    _right_action,
    base_change,
    constant_mackey,
    is_mackey_iso,
    mackey_hom,
    make_mackey,
    module_structure,
)


class Pi0Thr(NamedTuple):
    """The computed Mackey functor with its ring action.

    ``mackey.e`` is the ring's additive group; ``mackey.g`` is presented on
    the tensor generators of ``A (x) A``, in ``kron``'s coordinates.  The
    ring acts on the fixed level through the right tensor slot, which is
    the action under which the comparison maps of
    :func:`verify_base_change` are well defined.
    """

    ring: InvolutiveRing
    mackey: MackeyZ2
    module: ModuleStructure


def pi0_thr(ring):
    """Compute the zeroth homotopy Mackey functor for a commutative ring
    with trivial involution.

    Raises:
        SpecError: if the ring involution is not the identity; the formula
            implemented here is specific to that case.
    """
    if not ring.has_trivial_involution():
        raise SpecError(
            "pi0_thr: only rings with trivial involution are supported"
        )
    a = ring.add
    n = ring.n_gens
    # T over generator triples: the slides of -a^2 and -2a for each generator a
    slides = []
    for i in range(n):
        for c in (ring.table[i][i], tuple(2 * x for x in _unit_vec(n, i))):
            minus_c = -ring.multiplication_by(c).matrix
            slides.append((minus_c, minus_c))
    g = balanced_tensor(a, a, slides)

    res = hom(g, a, [ring.table[i][j] for i in range(n) for j in range(n)])
    tran = hom(a, g, kron(Mat.identity(n), Mat.row_vector(ring.one)).scale(2))
    mk = make_mackey(a, g, identity_hom(a), res, tran, where="pi0_thr")

    act_e = [ring.multiplication_by(_unit_vec(n, i)) for i in range(n)]
    act_g = _right_action(g, n, [f.matrix for f in act_e])
    ms = module_structure(ring, mk, act_e, act_g, where="pi0_thr module")
    return Pi0Thr(ring, mk, ms)


def unit_comparison(result):
    """The Mackey morphism from the constant functor of the ring to the
    computed one: identity on the underlying level, ``a -> a (x) 1`` on the
    fixed level."""
    ring = result.ring
    n = ring.n_gens
    const = constant_mackey(ring.add)
    rows_g = kron(Mat.identity(n), Mat.row_vector(ring.one))
    return mackey_hom(
        const,
        result.mackey,
        identity_hom(ring.add),
        hom(ring.add, result.mackey.g, rows_g),
        where="unit comparison",
    )


def mod2_frobenius(ring):
    """``(ring mod 2, its Frobenius)``, built once per ring and passed to
    both :func:`alpha_report` and :func:`ses_check`; each builds its own
    when given none."""
    r2 = mod2(ring)
    return r2, frobenius(r2)


def frobenius_twisted_square(ring, frob=None):
    """The quotient of ``A/2 (x) A/2`` by moving Frobenius images across
    the tensor sign: relations ``phi(c) x (x) y - x (x) phi(c) y``.

    ``frob`` is :func:`mod2_frobenius` of ``ring``, built here when not
    given.  Returns ``(ring mod 2, the quotient group)``; the quotient is
    presented on the same tensor generators as ``A/2 (x) A/2``.
    """
    r2, phi = frob or mod2_frobenius(ring)
    images = phi.apply_rows(Mat.identity(r2.n_gens))
    mults = (r2.multiplication_by(images.row(i)).matrix for i in range(images.rows))
    return r2, balanced_tensor(r2.add, r2.add, [(m, m) for m in mults])


class SesReport(NamedTuple):
    """The verified short exact sequence through the fixed level."""

    doubled_ideal: object
    twisted_square: object
    exactness: ExactnessReport

    def __bool__(self):
        return bool(self.exactness)


def ses_check(result, frob=None):
    """Verify ``0 -> 2A -> fixed level -> twisted square -> 0`` exactly.

    The doubled ideal is presented as ``A / ker(mult by 2)``; its map into
    the fixed level sends the class of ``a`` to ``2a (x) 1``.  The quotient
    map to the twisted square is the identity on tensor generators.  One
    :func:`is_exact` over the sequence, with the zero group at both ends,
    computes injectivity, exactness in the middle and surjectivity; any
    failure raises :class:`CertificateError` naming the first element
    outside an image.  ``frob`` is as for :func:`frobenius_twisted_square`.
    """
    ring = result.ring
    a = ring.add
    n = ring.n_gens
    g = result.mackey.g
    zero = free_group(0)

    # Present the doubled ideal as A / ker(mult by 2); the transfer matrix
    # a -> 2a (x) 1 then descends to its embedding into the fixed level.
    double = ring.multiplication_by(tuple(2 * c for c in ring.one))
    two_a = group(n, vstack(a.relations, _kernel_lattice(double)))
    _, twisted = frobenius_twisted_square(ring, frob)
    report = is_exact([
        hom(zero, two_a, Mat.zeros(0, n)),
        hom(two_a, g, result.mackey.tran.matrix),
        hom(g, twisted, Mat.identity(n * n)),
        hom(twisted, zero, Mat.zeros(n * n, 0)),
    ])
    if not report:
        raise CertificateError(
            f"0 -> 2A -> fixed level -> twisted square -> 0 is not exact: {report.detail}"
        )
    return SesReport(two_a, twisted, report)


class AlphaReport(NamedTuple):
    """Whether the unit comparison hits the whole fixed level."""

    is_iso: bool
    frobenius_surjective: bool


def alpha_report(result, frob=None):
    """Decide whether ``a -> 1 (x) a`` is an isomorphism onto the fixed
    level, by two independent routes.

    Route one inverts the map directly over the presentations.  Route two
    tests surjectivity of the Frobenius of ``A/2`` (``frob``, as for
    :func:`frobenius_twisted_square`), which is equivalent, by
    :func:`_is_onto`.  Disagreement raises :class:`CertificateError`.
    """
    ring = result.ring
    n = ring.n_gens
    alpha = hom(
        ring.add, result.mackey.g, kron(Mat.row_vector(ring.one), Mat.identity(n))
    )
    direct = inverse(alpha) is not None
    _, phi = frob or mod2_frobenius(ring)
    surj = _is_onto(phi)
    if direct != surj:
        raise CertificateError(
            "unit comparison invertibility disagrees with Frobenius "
            f"surjectivity: direct={direct}, frobenius={surj}"
        )
    return AlphaReport(direct, surj)


def _is_onto(f):
    """Whether the homomorphism ``f`` is surjective: its cokernel, the
    target modulo the images of the source generators, is trivial.  One
    Smith form of ``target.n_gens`` columns decides it, where listing the
    image of a finite group takes as many steps as the group has elements.

    >>> z = free_group(1)
    >>> _is_onto(hom(z, group(1, [[4]]), [[3]])), _is_onto(hom(z, z, [[2]]))
    (True, False)
    """
    target = f.target
    return group(target.n_gens, vstack(target.relations, f.matrix)).is_trivial()


class BaseChangeReport(NamedTuple):
    """Outcome of comparing extension of scalars with direct computation."""

    is_iso: bool
    comparison: MackeyHom
    source_levels: tuple
    target_levels: tuple

    def obstruction(self):
        """Human-readable invariant factors on both sides when not iso."""
        return (
            f"e: {self.source_levels[0]!r} -> {self.target_levels[0]!r}, "
            f"g: {self.source_levels[1]!r} -> {self.target_levels[1]!r}"
        )


def verify_base_change(ring_map):
    """Compare the base-changed Mackey functor of the source with the
    directly computed one of the target.

    The comparison sends ``a (x) b -> f(a) b`` on underlying levels and
    ``(x (x) y) (x) b -> f(x) (x) f(y) b`` on fixed levels; it is always a
    morphism of Mackey functors, and the report records whether both levels
    are isomorphisms (guaranteed for etale ring maps, and generally false
    otherwise).
    """
    src = pi0_thr(ring_map.source)
    tgt = pi0_thr(ring_map.target)
    bc = base_change(src.module, ring_map)

    b = ring_map.target
    images = ring_map.add_hom.apply_rows(Mat.identity(ring_map.source.n_gens))
    # Row (i, j) of ``mult`` is f(a_i) b_j: the map on underlying levels.
    mult = b.times_generators(images)
    f_e = hom(bc.mackey.e, tgt.mackey.e, mult)
    f_g = hom(bc.mackey.g, tgt.mackey.g, kron(images, mult))

    comparison = mackey_hom(
        bc.mackey, tgt.mackey, f_e, f_g, where="base change comparison"
    )
    return BaseChangeReport(
        is_mackey_iso(comparison),
        comparison,
        (bc.mackey.e, bc.mackey.g),
        (tgt.mackey.e, tgt.mackey.g),
    )
