"""Two-level Mackey functors for the group of order two.

An object here is a pair of finitely generated abelian groups — an
underlying level ``e`` with an involution ``w`` and a fixed level ``g`` —
connected by restriction ``res: g -> e`` and transfer ``tran: e -> g``
subject to

* ``w`` has order two,
* ``res`` lands in the ``w``-fixed part  (``w . res = res``),
* ``tran`` factors through the ``w``-coinvariants  (``tran . w = tran``),
* the double coset law ``res . tran = 1 + w``.

Every constructor routes through :func:`make_mackey`, which checks all
four axioms and counts how many times the double coset law has been
verified (the suite asserts a global lower bound on that counter).

Module structures over a ring with involution and base change along a
ring map are provided for the levels; the tensor relations are imposed
exactly and all axioms are re-verified on the result.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SpecError
from .fgab import (
    FgAbGroup,
    GroupHom,
    Mat,
    _same_presentation,
    balanced_tensor,
    direct_sum,
    group,
    hom,
    identity_hom,
    inverse,
    kernel,
    kron,
    lift_through,
)
from .involutive_algebra import _unit_vec

#: Number of double coset verifications performed so far in this process.
double_coset_verifications = 0


class MackeyZ2(NamedTuple):
    """A Mackey functor for the order-two group; build via :func:`make_mackey`."""

    e: FgAbGroup
    g: FgAbGroup
    w: GroupHom
    res: GroupHom
    tran: GroupHom

    def __repr__(self):
        return f"MackeyZ2(e={self.e!r}, g={self.g!r})"


def make_mackey(e, g, w, res, tran, where="mackey"):
    """Assemble a :class:`MackeyZ2`, verifying every axiom.

    Raises:
        SpecError: naming the violated axiom, e.g. the double coset law
            for ``(Z, Z, id, id, id)`` where ``res(tran(x)) = x != 2x``.
    """
    global double_coset_verifications
    if not (_same_presentation(w.source, e) and _same_presentation(w.target, e)):
        raise SpecError(f"{where}: involution is not an endomorphism of the e level")
    if not (_same_presentation(res.source, g) and _same_presentation(res.target, e)):
        raise SpecError(f"{where}: restriction must map g to e")
    if not (_same_presentation(tran.source, e) and _same_presentation(tran.target, g)):
        raise SpecError(f"{where}: transfer must map e to g")
    if not w.then(w).equal(identity_hom(e)):
        raise SpecError(f"{where}: involution does not square to the identity")
    if not res.then(w).equal(res):
        raise SpecError(f"{where}: restriction does not land in the fixed part")
    if not w.then(tran).equal(tran):
        raise SpecError(f"{where}: transfer does not factor through coinvariants")
    if not tran.then(res).equal(identity_hom(e) + w):
        raise SpecError(f"{where}: double coset law res.tran = 1 + w fails")
    double_coset_verifications += 1
    return MackeyZ2(e, g, w, res, tran)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant_mackey(a):
    """Trivial-involution Mackey functor with both levels ``a``: res is the
    identity and tran is multiplication by two."""
    ident = identity_hom(a)
    return make_mackey(a, a, ident, ident, ident + ident)


def fixed_point_mackey(a, w):
    """Fixed points of an involution ``w`` on ``a``: the g level is
    ``ker(w - 1)``, restriction is the inclusion and transfer is ``1 + w``."""
    if not w.then(w).equal(identity_hom(a)):
        raise SpecError("fixed_point_mackey: w does not square to the identity")
    fixed, incl = kernel(w - identity_hom(a))
    tran = lift_through(incl, identity_hom(a) + w)
    return make_mackey(a, fixed, w, incl, tran)


def induced_mackey(a):
    """The induced Mackey functor of ``a``: e level ``a + a`` with the swap
    involution, g level ``a``, diagonal restriction, sum transfer."""
    s, i1, i2, p1, p2 = direct_sum(a, a)
    swap = p1.then(i2) + p2.then(i1)
    res = i1 + i2
    tran = p1 + p2
    return make_mackey(s, a, swap, res, tran)


def burnside_mackey():
    """The Burnside Mackey functor: e = Z, g = Z{[pt], [free orbit]}."""
    e = group(1, [])
    g = group(2, [])
    res = hom(g, e, [[1], [2]])
    tran = hom(e, g, [[0, 1]])
    return make_mackey(e, g, identity_hom(e), res, tran)


# ---------------------------------------------------------------------------
# morphisms and levelwise operations
# ---------------------------------------------------------------------------


class MackeyHom(NamedTuple):
    """A morphism of Mackey functors; build via :func:`mackey_hom`."""

    source: MackeyZ2
    target: MackeyZ2
    f_e: GroupHom
    f_g: GroupHom


def mackey_hom(source, target, f_e, f_g, where="mackey map"):
    """Assemble a :class:`MackeyHom` from two ``GroupHom``s, verifying the
    four squares."""
    if not source.w.then(f_e).equal(f_e.then(target.w)):
        raise SpecError(f"{where}: does not commute with the involutions")
    if not source.res.then(f_e).equal(f_g.then(target.res)):
        raise SpecError(f"{where}: does not commute with restriction")
    if not source.tran.then(f_g).equal(f_e.then(target.tran)):
        raise SpecError(f"{where}: does not commute with transfer")
    return MackeyHom(source, target, f_e, f_g)


def is_mackey_iso(h):
    """Whether both levels of a Mackey morphism are isomorphisms."""
    return inverse(h.f_e) is not None and inverse(h.f_g) is not None


def mackey_direct_sum(m, n):
    """Direct sum of Mackey functors with the two inclusions."""
    s_e, ie1, ie2, pe1, pe2 = direct_sum(m.e, n.e)
    s_g, ig1, ig2, pg1, pg2 = direct_sum(m.g, n.g)
    w = pe1.then(m.w).then(ie1) + pe2.then(n.w).then(ie2)
    res = pg1.then(m.res).then(ie1) + pg2.then(n.res).then(ie2)
    tran = pe1.then(m.tran).then(ig1) + pe2.then(n.tran).then(ig2)
    s = make_mackey(s_e, s_g, w, res, tran, where="mackey direct sum")
    incl1 = mackey_hom(m, s, ie1, ig1, where="direct sum inclusion")
    incl2 = mackey_hom(n, s, ie2, ig2, where="direct sum inclusion")
    return s, incl1, incl2


# ---------------------------------------------------------------------------
# module structures and base change
# ---------------------------------------------------------------------------


class ModuleStructure(NamedTuple):
    """An action of a ring with involution on both levels of a Mackey
    functor; build via :func:`module_structure`."""

    ring: object
    mackey: MackeyZ2
    act_e: tuple
    act_g: tuple

    def action(self, level, vec):
        """The additive endomorphism 'multiply by the ring element vec'."""
        acts = self.act_e if level == "e" else self.act_g
        grp = self.mackey.e if level == "e" else self.mackey.g
        mat = Mat.zeros(grp.n_gens, grp.n_gens)
        for coeff, act in zip(vec, acts):
            if coeff:
                mat = mat + act.matrix.scale(coeff)
        # an integer combination of checked endomorphisms is well defined
        return GroupHom(grp, grp, mat, _checked=True)


def module_structure(ring, mackey, rows_e, rows_g, where="module"):
    """Assemble a :class:`ModuleStructure`, verifying the action axioms.

    ``rows_e[i]`` / ``rows_g[i]`` are the matrices by which the i-th ring
    generator acts on the e / g level.  Checked: unit acts as identity,
    actions compose according to the multiplication table, restriction and
    transfer are linear, and the involution intertwines the action through
    the ring involution.
    """
    n = ring.n_gens
    if len(rows_e) != n or len(rows_g) != n:
        raise SpecError(f"{where}: need one action matrix per ring generator")

    def endomorphism(grp, a):
        # ``action`` trusts its combinations of these, so each must be
        # checked on ``grp`` itself: a GroupHom of another group is rechecked
        if isinstance(a, GroupHom):
            if a.source is grp and a.target is grp:
                return a
            a = a.matrix
        return hom(grp, grp, a)

    act_e = tuple(endomorphism(mackey.e, a) for a in rows_e)
    act_g = tuple(endomorphism(mackey.g, a) for a in rows_g)
    ms = ModuleStructure(ring, mackey, act_e, act_g)

    for level, grp in (("e", mackey.e), ("g", mackey.g)):
        if not ms.action(level, ring.one).equal(identity_hom(grp)):
            raise SpecError(f"{where}: unit does not act as the identity on {level}")
        acts = act_e if level == "e" else act_g
        for i in range(n):
            for j in range(n):
                composite = acts[i].then(acts[j])
                if not composite.equal(ms.action(level, ring.table[i][j])):
                    raise SpecError(
                        f"{where}: action on {level} is not multiplicative "
                        f"at generators ({i}, {j})"
                    )
    for i in range(n):
        if not act_g[i].then(mackey.res).equal(mackey.res.then(act_e[i])):
            raise SpecError(f"{where}: restriction is not linear at generator {i}")
        if not act_e[i].then(mackey.tran).equal(mackey.tran.then(act_g[i])):
            raise SpecError(f"{where}: transfer is not linear at generator {i}")
        gi = _unit_vec(n, i)
        twisted = ms.action("e", ring.w.apply(gi))
        if not act_e[i].then(mackey.w).equal(mackey.w.then(twisted)):
            raise SpecError(
                f"{where}: involution does not intertwine the action at "
                f"generator {i}"
            )
    return ms


class BaseChangeResult(NamedTuple):
    """Levels of a module Mackey functor tensored over the acting ring, each
    presented in ``kron``'s coordinates on (old generator, B generator)."""

    mackey: MackeyZ2
    module: ModuleStructure


def _right_action(level, n_left, mults):
    """The endomorphisms ``x (x) y -> x (x) m y`` of a tensor ``level``
    whose left factor has ``n_left`` generators, one for each matrix ``m``
    in ``mults``."""
    ident = Mat.identity(n_left)
    return tuple(hom(level, level, kron(ident, m)) for m in mults)


def base_change(ms, ring_map):
    """Tensor a module Mackey functor along a ring map ``A -> B``.

    Both levels become B-modules via the right factor; the structure maps
    are the originals tensored with the identity (the involution with the
    involution of B).  All Mackey and module axioms are re-verified on the
    result, including the double coset law.
    """
    if ring_map.source is not ms.ring:
        raise SpecError("base change: ring map source does not act on the module")
    b = ring_map.target
    m = ms.mackey
    # each map enters by its reduced generator images
    ident_a, ident_b = Mat.identity(ms.ring.n_gens), Mat.identity(b.n_gens)
    ident_e, ident_g = Mat.identity(m.e.n_gens), Mat.identity(m.g.n_gens)
    # in ``L (x)_A B`` each generator a of A slides from its action on L to f(a) on B
    images = ring_map.add_hom.apply_rows(ident_a)
    f_mults = [b.multiplication_by(images.row(i)).matrix for i in range(images.rows)]
    e_new = balanced_tensor(m.e, b.add, [(a.apply_rows(ident_e), r)
                                         for a, r in zip(ms.act_e, f_mults)])
    g_new = balanced_tensor(m.g, b.add, [(a.apply_rows(ident_g), r)
                                         for a, r in zip(ms.act_g, f_mults)])

    w_new = hom(e_new, e_new, kron(m.w.apply_rows(ident_e), b.w.apply_rows(ident_b)))
    res_new = hom(g_new, e_new, kron(m.res.apply_rows(ident_g), ident_b))
    tran_new = hom(e_new, g_new, kron(m.tran.apply_rows(ident_e), ident_b))
    mk = make_mackey(e_new, g_new, w_new, res_new, tran_new, where="base change")

    b_mults = [b.multiplication_by(_unit_vec(b.n_gens, i)).matrix for i in range(b.n_gens)]
    module = module_structure(
        b, mk, _right_action(e_new, m.e.n_gens, b_mults),
        _right_action(g_new, m.g.n_gens, b_mults), where="base change"
    )
    return BaseChangeResult(mk, module)
