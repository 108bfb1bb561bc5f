"""Tests for the zeroth homotopy Mackey functor computations."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrcalc import cli, fgab, mackey, thr_pi0
from thrcalc.errors import CertificateError, SpecError
from thrcalc.fgab import Mat, group, solve_left
from thrcalc.involutive_algebra import (
    _unit_vec,
    make_ring,
    mod2,
    ring_F2,
    ring_F4,
    ring_Z,
    ring_Zmod,
    ring_dual_numbers_F2,
    ring_hom,
)
from thrcalc.mackey import is_mackey_iso
from thrcalc.thr_pi0 import (
    alpha_report,
    frobenius_twisted_square,
    pi0_thr,
    ses_check,
    unit_comparison,
    verify_base_change,
)

from helpers import (
    is_surjective_on_finite,
    pure_tensor,
    ring_gaussian_integers,
    ring_mul,
    ring_square,
)


def test_integers_give_the_constant_mackey_functor():
    result = pi0_thr(ring_Z())
    assert result.mackey.e == group(1, [])
    assert result.mackey.g == group(1, [])
    assert is_mackey_iso(unit_comparison(result))
    assert bool(ses_check(result))
    rep = alpha_report(result)
    assert rep.is_iso and rep.frobenius_surjective


def test_f2_values():
    result = pi0_thr(ring_F2())
    assert result.mackey.g == group(1, [[2]])
    # res(x (x) y) = xy is the identity here, tran = 2(-) (x) 1 vanishes.
    assert result.mackey.res.apply((1,)) == (1,)
    assert result.mackey.tran.is_zero_map()
    assert alpha_report(result).is_iso


def test_dual_numbers_fixed_level_is_sixteen_elements():
    result = pi0_thr(ring_dual_numbers_F2())
    assert result.mackey.g == group(4, [[2, 0, 0, 0], [0, 2, 0, 0],
                                        [0, 0, 2, 0], [0, 0, 0, 2]])
    rep = alpha_report(result)
    assert not rep.is_iso
    assert not rep.frobenius_surjective
    assert bool(ses_check(result))
    # res multiplies: t (x) t -> t^2 = 0
    t = (0, 1)
    assert result.mackey.res.apply(pure_tensor(2, t, t)) == (0, 0)


def test_gaussian_integers_mod_two_match_dual_numbers():
    # F2[i] with i^2 = -1 = 1 is F2[i-1] with (i-1)^2 = 0: dual numbers in
    # another basis, so the fixed level again has sixteen elements.
    r2 = mod2(ring_gaussian_integers())
    result = pi0_thr(r2)
    assert result.mackey.g.order() == 16
    assert not alpha_report(result).is_iso


def test_nontrivial_involution_is_rejected():
    with pytest.raises(SpecError, match="trivial involution"):
        pi0_thr(ring_gaussian_integers())


def test_z4_short_exact_sequence():
    result = pi0_thr(ring_Zmod(4))
    assert result.mackey.g == group(1, [[4]])
    report = ses_check(result)
    assert report.doubled_ideal == group(1, [[2]])
    assert report.twisted_square == group(1, [[2]])
    assert bool(report)
    assert alpha_report(result).is_iso


def test_ses_check_raises_when_the_sequence_breaks(monkeypatch):
    for ring in (ring_F2(), ring_dual_numbers_F2()):
        result = pi0_thr(ring)
        # 2A presented as A itself: the transfer a -> 2a (x) 1 kills A, so
        # it is not injective
        with monkeypatch.context() as patch:
            patch.setattr(thr_pi0, "_kernel_lattice", lambda f: Mat.zeros(0, f.source.n_gens))
            with pytest.raises(CertificateError):
                ses_check(result)
        # a twisted square that kills every generator: the whole fixed
        # level is the kernel, and 2A = 0 is not all of it
        with monkeypatch.context() as patch:
            patch.setattr(thr_pi0, "frobenius_twisted_square", lambda ring, frob: (
                None, group(ring.n_gens ** 2, Mat.identity(ring.n_gens ** 2))))
            with pytest.raises(CertificateError):
                ses_check(result)
        assert bool(ses_check(result))


def test_f4_fixed_level_and_alpha():
    result = pi0_thr(ring_F4())
    assert result.mackey.g.order() == 4
    assert alpha_report(result).is_iso


def test_transfer_values_over_z():
    result = pi0_thr(ring_Z())
    assert result.mackey.tran.apply((3,)) == (6,)
    # double coset: res(tran(a)) = 2a
    assert result.mackey.res.apply(result.mackey.tran.apply((3,))) == (6,)


def test_right_slot_module_action():
    result = pi0_thr(ring_dual_numbers_F2())
    t_action = result.module.action("g", (0, 1))
    one, t = (1, 0), (0, 1)
    moved = t_action.apply(pure_tensor(2, one, one))
    assert result.mackey.g.same_element(moved, pure_tensor(2, one, t))


SMALL_RINGS = [
    ring_F2(),
    ring_F4(),
    ring_dual_numbers_F2(),
    ring_Zmod(4),
    ring_Zmod(8),
    mod2(ring_gaussian_integers()),
]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: repr(r.add))
def test_generator_span_equals_element_span(ring):
    """The relation subgroup spanned over generator triples contains the
    relations for every element triple (the additivity argument)."""
    n = ring.n_gens
    span = pi0_thr(ring).mackey.g.relations
    elements = ring.add.elements()
    for a in elements:
        square = ring_square(ring, a)
        double = tuple(2 * c for c in a)
        for x in elements:
            for y in elements:
                for coeff in (square, double):
                    left = pure_tensor(n, x, ring_mul(ring, coeff, y))
                    right = pure_tensor(n, ring_mul(ring, coeff, x), y)
                    row = tuple(p - q for p, q in zip(left, right))
                    assert solve_left(span, [row])[0] is not None, (a, x, y, coeff)


def test_twisted_square_of_dual_numbers_is_full_tensor_square():
    # The Frobenius kills t, so no relations are imposed beyond mod 2.
    _, q = frobenius_twisted_square(ring_dual_numbers_F2())
    assert q.order() == 16


def test_twisted_square_of_f4_collapses():
    _, q = frobenius_twisted_square(ring_F4())
    assert q.order() == 4


def test_base_change_f2_to_f4_is_iso():
    rep = verify_base_change(ring_hom(ring_F2(), ring_F4(), [[1, 0]]))
    assert rep.is_iso


def test_base_change_f2_to_dual_numbers_is_not_iso():
    rep = verify_base_change(
        ring_hom(ring_F2(), ring_dual_numbers_F2(), [[1, 0]])
    )
    assert not rep.is_iso
    assert rep.source_levels[1].order() == 4
    assert rep.target_levels[1].order() == 16
    assert "g:" in rep.obstruction()


def test_base_change_z_to_z4_runs():
    rep = verify_base_change(ring_hom(ring_Z(), ring_Zmod(4), [[1]]))
    # The comparison is a well-defined Mackey morphism regardless of
    # whether it is an isomorphism.
    assert rep.comparison.f_g.source.n_gens == 1


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(range(len(SMALL_RINGS))))
def test_certified_reports_are_internally_consistent(idx):
    ring = SMALL_RINGS[idx]
    result = pi0_thr(ring)
    # Both calls raise CertificateError on any internal disagreement.
    assert bool(ses_check(result))
    alpha_report(result)


def truncated_polynomials(m, k):
    """``(Z/m)[t]/(t^k)`` on ``1, t, ..., t^(k-1)``, trivial involution
    (``m = 0`` for ``Z``)."""
    table = [[_unit_vec(k, i + j) if i + j < k else (0,) * k for j in range(k)]
             for i in range(k)]
    add = group(k, [[m * int(i == j) for j in range(k)] for i in range(k)] if m else [])
    return make_ring(add, table, _unit_vec(k, 0), None)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: repr(r.add))
def test_frobenius_cokernel_route_matches_the_enumeration(ring):
    """The second route of ``alpha_report`` (the cokernel of the Frobenius
    is trivial) decides what listing its image decides."""
    _, phi = thr_pi0.mod2_frobenius(ring)
    assert thr_pi0._is_onto(phi) == is_surjective_on_finite(phi)


# mod-2 groups of at most 2^10 elements, the zero group for odd m
@pytest.mark.parametrize("m, k", [(m, k) for m in (0, 2, 3, 4, 6) for k in range(1, 11)])
def test_frobenius_of_truncated_polynomials_is_onto_only_without_t(m, k):
    _, phi = thr_pi0.mod2_frobenius(truncated_polynomials(m, k))
    assert thr_pi0._is_onto(phi) == is_surjective_on_finite(phi) == (m % 2 == 1 or k == 1)


def test_each_balanced_quotient_builds_one_group(monkeypatch, capsys):
    """The fixed level, the twisted square and each base-changed level is
    one ``balanced_tensor`` call that builds exactly one group, the
    quotient, and every group hands ``snf`` distinct nonzero rows."""
    real_init, real_snf = fgab.FgAbGroup.__init__, fgab.snf
    built, factored, calls = [], [], []

    def counting_init(self, n_gens, relations):
        real_init(self, n_gens, relations)
        built.append(self)

    def recording_snf(m, u_cols=None):
        if sys._getframe(1).f_code is real_init.__code__:
            factored.append(m)
        return real_snf(m, u_cols)

    monkeypatch.setattr(fgab.FgAbGroup, "__init__", counting_init)
    monkeypatch.setattr(fgab, "snf", recording_snf)
    for module in (thr_pi0, mackey):
        def recording(g, h, slides, real=module.balanced_tensor):
            before = len(built)
            quotient = real(g, h, slides)
            one = len(built) == before + 1 and built[-1] is quotient
            calls.append((sys._getframe(1).f_code.co_name, one))
            return quotient

        monkeypatch.setattr(module, "balanced_tensor", recording)
    assert cli.main(["pi0thr", "tests/data/ring_f4.yaml"]) == 0
    assert cli.main(["basechange", "tests/data/ring_f2.yaml", "tests/data/ring_f2t.yaml",
                     "tests/data/map_f2_to_f4.yaml"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert {caller for caller, _ in calls} == {
        "pi0_thr", "frobenius_twisted_square", "base_change"}
    assert all(one for _, one in calls)
    assert factored
    for m in factored:
        assert all(map(any, m.data)) and len(set(m.data)) == m.rows
