"""The zeroth equivariant homotopy of real topological Hochschild homology
of a commutative ring with trivial involution, as a Mackey functor.

For a commutative ring ``A`` the object computed here has underlying level
``A`` with identity involution and fixed level ``(A (x) A) / T``, where ``T``
is the subgroup generated by

    ``x (x) a^2 y  -  a^2 x (x) y``      and      ``x (x) 2a y  -  2a x (x) y``

for ``a, x, y in A``; restriction multiplies the two tensor factors and
transfer sends ``a`` to ``2a (x) 1``.  Because the two kinds of relation are
additive in ``a`` after expanding squares (the cross terms are exactly the
doubled relations), spanning over generator triples is enough; a unit test
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

from dataclasses import dataclass

from .errors import CertificateError, SpecError
from .fgab import (
    ExactnessReport,
    Mat,
    cokernel,
    group,
    hom,
    identity_hom,
    inverse,
    is_exact,
    kernel,
    pure_tensor,
    tensor,
    vstack,
)
from .involutive_algebra import (
    InvolutiveRing,
    _unit_vec,
    frobenius,
    is_surjective_on_finite,
    mod2,
)
from .mackey import (
    MackeyHom,
    MackeyZ2,
    ModuleStructure,
    base_change,
    constant_mackey,
    mackey_hom,
    make_mackey,
    module_structure,
)


def t_span_rows(ring):
    """Generators of the relation subgroup ``T`` inside ``A (x) A``, written
    in flat tensor coordinates over generator triples ``(a, x, y)``."""
    n = ring.n_gens
    rows = []
    for i in range(n):
        square = ring.table[i][i]
        double = tuple(2 * c for c in _unit_vec(n, i))
        for j in range(n):
            ej = _unit_vec(n, j)
            for k in range(n):
                ek = _unit_vec(n, k)
                for coeff in (square, double):
                    left = pure_tensor(n, ej, ring.mul(coeff, ek))
                    right = pure_tensor(n, ring.mul(coeff, ej), ek)
                    rows.append(tuple(x - y for x, y in zip(left, right)))
    return rows


@dataclass(frozen=True)
class Pi0Thr:
    """The computed Mackey functor with its ring action.

    ``mackey.e`` is the ring's additive group; ``mackey.g`` is presented on
    the flat tensor generators of ``A (x) A``.  The ring acts on the fixed
    level through the right tensor slot, which is the action under which
    the comparison maps of :func:`verify_base_change` are well defined.
    """

    ring: InvolutiveRing
    mackey: MackeyZ2
    module: ModuleStructure

    def g_class(self, x, y):
        """The class of the pure tensor ``x (x) y`` in the fixed level."""
        n = self.ring.n_gens
        return self.mackey.g.reduce(pure_tensor(n, tuple(x), tuple(y)))


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
    t = tensor(a, a)
    rels = vstack(t.relations, Mat(t_span_rows(ring), cols=n * n))
    g = group(n * n, rels)

    res_rows = []
    for i in range(n):
        for j in range(n):
            res_rows.append(ring.table[i][j])
    res = hom(g, a, res_rows)
    tran_rows = [
        tuple(2 * c for c in pure_tensor(n, _unit_vec(n, i), ring.one))
        for i in range(n)
    ]
    tran = hom(a, g, tran_rows)
    mk = make_mackey(a, g, identity_hom(a), res, tran, where="pi0_thr")

    act_e = [ring.multiplication_by(_unit_vec(n, i)) for i in range(n)]
    act_g = []
    for i in range(n):
        rows = []
        for j in range(n):
            for k in range(n):
                rows.append(
                    pure_tensor(
                        n, _unit_vec(n, j), ring.mul(_unit_vec(n, i), _unit_vec(n, k))
                    )
                )
        act_g.append(hom(g, g, rows))
    ms = module_structure(ring, mk, act_e, act_g, where="pi0_thr module")
    return Pi0Thr(ring, mk, ms)


def unit_comparison(result):
    """The Mackey morphism from the constant functor of the ring to the
    computed one: identity on the underlying level, ``a -> a (x) 1`` on the
    fixed level."""
    ring = result.ring
    n = ring.n_gens
    const = constant_mackey(ring.add)
    rows_g = [pure_tensor(n, _unit_vec(n, i), ring.one) for i in range(n)]
    return mackey_hom(
        const,
        result.mackey,
        identity_hom(ring.add),
        hom(ring.add, result.mackey.g, rows_g),
        where="unit comparison",
    )


def frobenius_twisted_square(ring):
    """The quotient of ``A/2 (x) A/2`` by moving Frobenius images across
    the tensor sign: relations ``phi(c) x (x) y - x (x) phi(c) y``.

    Returns ``(ring mod 2, the quotient group)``; the quotient is presented
    on the same flat tensor generators as ``A/2 (x) A/2``.
    """
    r2 = mod2(ring)
    phi = frobenius(r2)
    n = r2.n_gens
    t = tensor(r2.add, r2.add)
    rows = []
    for c in range(n):
        pc = phi.apply(_unit_vec(n, c))
        for j in range(n):
            ej = _unit_vec(n, j)
            for k in range(n):
                ek = _unit_vec(n, k)
                left = pure_tensor(n, r2.mul(pc, ej), ek)
                right = pure_tensor(n, ej, r2.mul(pc, ek))
                rows.append(tuple(x - y for x, y in zip(left, right)))
    quotient = group(n * n, vstack(t.relations, Mat(rows, cols=n * n)))
    return r2, quotient


@dataclass(frozen=True)
class SesReport:
    """The verified short exact sequence through the fixed level."""

    doubled_ideal: object
    fixed_level: object
    twisted_square: object
    mono: object
    epi: object
    exactness: ExactnessReport

    def __bool__(self):
        return bool(self.exactness)


def ses_check(result):
    """Verify ``0 -> 2A -> fixed level -> twisted square -> 0`` exactly.

    The doubled ideal is presented as ``A / ker(mult by 2)``; its map into
    the fixed level sends the class of ``a`` to ``2a (x) 1``.  The quotient
    map to the twisted square is the identity on tensor generators.
    Injectivity, exactness in the middle and surjectivity are all computed;
    any failure raises :class:`CertificateError`.
    """
    ring = result.ring
    a = ring.add
    n = ring.n_gens
    g = result.mackey.g

    # Present the doubled ideal as A / ker(mult by 2); the transfer matrix
    # a -> 2a (x) 1 then descends to its embedding into the fixed level.
    two_a = group(n, vstack(a.relations, Mat(_kernel_rows(ring), cols=n)))
    mono = hom(two_a, g, result.mackey.tran.matrix)

    _, twisted = frobenius_twisted_square(ring)
    epi = hom(g, twisted, Mat.identity(n * n))

    mono_kernel, _ = kernel(mono)
    if not mono_kernel.is_trivial():
        raise CertificateError(
            "doubled ideal does not embed into the fixed level"
        )
    coker, _ = cokernel(epi)
    if not coker.is_trivial():
        raise CertificateError("fixed level does not surject onto the twisted square")
    report = is_exact([mono, epi])
    if not report:
        raise CertificateError(f"sequence is not exact in the middle: {report.detail}")
    return SesReport(two_a, g, twisted, mono, epi, report)


def _kernel_rows(ring):
    """Rows presenting ker(mult by 2) on the ring's additive generators."""
    double = ring.multiplication_by(tuple(2 * c for c in ring.one))
    k, incl = kernel(double)
    return [incl.matrix.row(i) for i in range(incl.matrix.rows)]


@dataclass(frozen=True)
class AlphaReport:
    """Whether the unit comparison hits the whole fixed level."""

    is_iso: bool
    frobenius_surjective: bool
    fixed_level: object


def alpha_report(result):
    """Decide whether ``a -> 1 (x) a`` is an isomorphism onto the fixed
    level, by two independent routes.

    Route one inverts the map directly over the presentations.  Route two
    tests surjectivity of the Frobenius of ``A/2``, which is equivalent.
    Disagreement raises :class:`CertificateError`.
    """
    ring = result.ring
    n = ring.n_gens
    alpha = hom(
        ring.add,
        result.mackey.g,
        [pure_tensor(n, ring.one, _unit_vec(n, i)) for i in range(n)],
    )
    direct = inverse(alpha) is not None
    phi = frobenius(mod2(ring))
    surj = is_surjective_on_finite(phi)
    if direct != surj:
        raise CertificateError(
            "unit comparison invertibility disagrees with Frobenius "
            f"surjectivity: direct={direct}, frobenius={surj}"
        )
    return AlphaReport(direct, surj, result.mackey.g)


@dataclass(frozen=True)
class BaseChangeReport:
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

    a, b = ring_map.source, ring_map.target
    na, nb = a.n_gens, b.n_gens

    rows_e = []
    for i in range(na):
        fi = ring_map.apply(_unit_vec(na, i))
        for j in range(nb):
            rows_e.append(b.mul(fi, _unit_vec(nb, j)))
    f_e = hom(bc.mackey.e, tgt.mackey.e, rows_e)

    rows_g = []
    for j in range(na):
        fj = ring_map.apply(_unit_vec(na, j))
        for k in range(na):
            fk = ring_map.apply(_unit_vec(na, k))
            for l in range(nb):
                rows_g.append(
                    pure_tensor(nb, fj, b.mul(fk, _unit_vec(nb, l)))
                )
    f_g = hom(bc.mackey.g, tgt.mackey.g, rows_g)

    comparison = mackey_hom(
        bc.mackey, tgt.mackey, f_e, f_g, where="base change comparison"
    )
    is_iso = inverse(f_e) is not None and inverse(f_g) is not None
    return BaseChangeReport(
        is_iso,
        comparison,
        (bc.mackey.e, bc.mackey.g),
        (tgt.mackey.e, tgt.mackey.g),
    )
