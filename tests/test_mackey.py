"""Tests for order-two Mackey functors."""

import pytest
from hypothesis import given, settings

import thrcalc.mackey as mk
from conftest import mackey_functors
from thrcalc.errors import SpecError
from thrcalc.fgab import (
    Mat,
    free_group,
    group,
    hom,
    identity_hom,
    is_exact,
    kernel,
    vstack,
)
from thrcalc.involutive_algebra import (
    mod2,
    ring_dual_numbers_F2,
    ring_F2,
    ring_F4,
    ring_hom,
    ring_Z,
    ring_Zmod,
)
from thrcalc.mackey import (
    base_change,
    burnside_mackey,
    constant_mackey,
    fixed_point_mackey,
    induced_mackey,
    is_mackey_iso,
    mackey_direct_sum,
    mackey_hom,
    make_mackey,
    module_structure,
)

from thrcalc.thr_pi0 import pi0_thr

from helpers import pure_tensor, ring_gaussian_integers

Z = free_group(1)
Z2 = group(1, [[2]])


def test_double_coset_law_is_enforced():
    # res = tran = id on Z gives res(tran(x)) = x, but 1 + w doubles.
    with pytest.raises(SpecError, match="double coset"):
        make_mackey(Z, Z, identity_hom(Z), identity_hom(Z), identity_hom(Z))


def test_restriction_must_land_in_fixed_part():
    e = free_group(2)
    swap = hom(e, e, [[0, 1], [1, 0]])
    res = hom(Z, e, [[1, 0]])
    tran = hom(e, Z, [[1], [1]])
    with pytest.raises(SpecError, match="fixed part"):
        make_mackey(e, Z, swap, res, tran)


def test_involution_must_square_to_identity():
    shear = hom(Z, Z, [[2]])
    with pytest.raises(SpecError, match="square"):
        make_mackey(Z, Z, shear, identity_hom(Z), identity_hom(Z) + identity_hom(Z))


def test_constant_mackey():
    m = constant_mackey(Z)
    assert m.res.equal(identity_hom(Z))
    assert m.tran.apply((3,)) == (6,)


def test_fixed_point_mackey_of_swap():
    a = free_group(2)
    swap = hom(a, a, [[0, 1], [1, 0]])
    m = fixed_point_mackey(a, swap)
    assert m.g == Z
    # restriction embeds the diagonal, transfer is (a, b) -> a + b.
    diag = m.res.apply((1,))
    assert diag in {(1, 1), (-1, -1)}
    x = m.tran.apply((2, 3))
    assert m.res.apply(x) == (5, 5) or m.res.apply(x) == (-5, -5)


def test_induced_mackey():
    m = induced_mackey(Z)
    assert m.e.free_rank == 2
    assert m.res.apply((1,)) == (1, 1)
    assert m.tran.apply((2, 3)) == (5,)


def test_burnside_mackey():
    m = burnside_mackey()
    assert m.res.apply((0, 1)) == (2,)
    assert m.tran.apply((1,)) == (0, 1)


def test_mackey_hom_square_checked():
    m = constant_mackey(Z)
    n = induced_mackey(Z)
    # g-level map must be the one forced by the restriction square.
    with pytest.raises(SpecError, match="restriction"):
        mackey_hom(m, n, hom(m.e, n.e, [[1, 1]]), hom(m.g, n.g, [[0]]))


def test_levelwise_ses():
    m = constant_mackey(Z)
    q = constant_mackey(Z2)
    two = mackey_hom(m, m, hom(m.e, m.e, [[2]]), hom(m.g, m.g, [[2]]))
    proj = mackey_hom(m, q, hom(m.e, q.e, [[1]]), hom(m.g, q.g, [[1]]))
    assert is_exact([two.f_e, proj.f_e]) and is_exact([two.f_g, proj.f_g])
    # and the identity composed with itself is not exact at the joint
    one = mackey_hom(m, m, hom(m.e, m.e, [[1]]), hom(m.g, m.g, [[1]]))
    assert not is_exact([one.f_e, one.f_e])


def test_direct_sum_is_mackey():
    s, i1, i2 = mackey_direct_sum(constant_mackey(Z2), induced_mackey(Z))
    assert s.e.free_rank == 2
    assert is_mackey_iso(i1) is False
    # inclusion followed by nothing is still a morphism; check one square
    assert i1.f_g.then(s.res).equal(constant_mackey(Z2).res.then(i1.f_e))


def test_module_structure_checks_unit():
    f2 = ring_F2()
    m = constant_mackey(f2.add)
    with pytest.raises(SpecError, match="unit"):
        module_structure(f2, m, [hom(f2.add, f2.add, Mat.zeros(1, 1))], [identity_hom(f2.add)])


def test_base_change_f2_to_f4():
    f2, f4 = ring_F2(), ring_F4()
    inc = ring_hom(f2, f4, [[1, 0]])
    m = constant_mackey(f2.add)
    ms = module_structure(f2, m, [identity_hom(f2.add)], [identity_hom(f2.add)])
    bc = base_change(ms, inc)
    assert bc.mackey.e == group(2, [[2, 0], [0, 2]])
    assert bc.mackey.g == group(2, [[2, 0], [0, 2]])
    # transfer doubles, hence vanishes mod 2
    assert bc.mackey.tran.is_zero_map()
    # the new module is an F4 action; multiplying the embedded unit by x
    # gives the embedded x
    x_action = bc.module.action("e", (0, 1))
    assert bc.mackey.e.same_element(
        x_action.apply(pure_tensor(2, (1,), (1, 0))), pure_tensor(2, (1,), (0, 1))
    )


@settings(max_examples=80, deadline=None)
@given(mackey_functors())
def test_random_mackey_functors_satisfy_axioms(m):
    before = mk.double_coset_verifications
    # Re-assembling through make_mackey re-verifies all axioms.
    mk.make_mackey(m.e, m.g, m.w, m.res, m.tran)
    assert mk.double_coset_verifications == before + 1


@settings(max_examples=40, deadline=None)
@given(mackey_functors())
def test_scalar_multiplication_and_kernels(m):
    # multiplication by 3 commutes with all structure maps
    f = mackey_hom(
        m,
        m,
        identity_hom(m.e) + identity_hom(m.e) + identity_hom(m.e),
        identity_hom(m.g) + identity_hom(m.g) + identity_hom(m.g),
    )
    # the kernel is the 3-torsion and the cokernel is the mod-3 reduction
    for level in (f.f_e, f.f_g):
        coker = group(level.target.n_gens, vstack(level.target.relations, level.matrix))
        assert kernel(level)[0].is_finite() and coker.is_finite()


def _test_modules():
    """Module structures of ``pi0_thr`` on the test rings, and one base change."""
    rings = [ring_Z(), ring_F2(), ring_F4(), ring_dual_numbers_F2(), ring_Zmod(4),
             mod2(ring_gaussian_integers())]
    modules = [pi0_thr(ring).module for ring in rings]
    f2 = ring_F2()
    m = module_structure(f2, constant_mackey(f2.add), [identity_hom(f2.add)],
                         [identity_hom(f2.add)])
    modules.append(base_change(m, ring_hom(f2, ring_F4(), [[1, 0]])).module)
    return modules


@pytest.mark.parametrize("ms", _test_modules(), ids=lambda ms: repr(ms.ring.add))
def test_module_action_equals_the_checked_hom(ms):
    ring = ms.ring
    for level, grp, acts in (("e", ms.mackey.e, ms.act_e), ("g", ms.mackey.g, ms.act_g)):
        for row in ring.table:
            for vec in row:
                mat = Mat.zeros(grp.n_gens, grp.n_gens)
                for coeff, act in zip(vec, acts):
                    mat = mat + act.matrix.scale(coeff)
                checked = hom(grp, grp, mat)
                action = ms.action(level, vec)
                assert action.source is grp and action.target is grp
                assert action.matrix == checked.matrix


def test_module_structure_rechecks_an_action_on_another_group():
    # on Z + Z the map e0 -> e1 is a homomorphism; on Z/2 + Z it is not
    free = free_group(2)
    m = constant_mackey(group(2, [[2, 0]]))
    shift = hom(free, free, [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not a well-defined homomorphism"):
        module_structure(ring_Z(), m, [shift], [identity_hom(m.g)])
