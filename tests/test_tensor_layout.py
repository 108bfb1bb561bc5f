"""The ``kron``-built tensor presentations against loops over pure tensors.

``balanced_tensor`` builds every tensor product of groups, and ``pi0_thr``,
its reports, ``base_change`` and ``verify_base_change`` build every
tensor-coordinate matrix as a ``kron`` of multiplication and hom
matrices.  The loops in ``helpers`` build the same matrices one pure tensor
of unit vectors at a time.  Hom matrices must agree entry for entry;
relation matrices must have the same rows, in any order, and present the
same group.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thrcalc.thr_pi0 as thr_pi0
from conftest import abelian_groups
from thrcalc.fgab import Mat, balanced_tensor, group, kron
from thrcalc.involutive_algebra import (
    frobenius,
    ring_dual_numbers_F2,
    ring_F2,
    ring_F4,
    ring_hom,
    ring_Z,
)
from thrcalc.mackey import base_change, induced_mackey, module_structure
from thrcalc.thr_pi0 import (
    alpha_report,
    frobenius_twisted_square,
    pi0_thr,
    unit_comparison,
    verify_base_change,
)

from helpers import (
    loop_base_change,
    loop_comparison,
    loop_pi0_thr,
    loop_slide_rows,
    loop_tensor_relations,
    loop_twisted_rows,
    tensor,
)
from test_thr_pi0 import SMALL_RINGS


def assert_same_relations(rels, rows, n_gens):
    """``rels`` (a ``Mat``) has the rows ``rows`` as a multiset and presents
    the same group on ``n_gens`` generators."""
    assert rels.cols == n_gens
    assert Counter(rels.data) == Counter(map(tuple, rows))
    assert group(n_gens, rels) == group(n_gens, Mat(rows, cols=n_gens))


def assert_same_matrix(mat, rows):
    assert mat == Mat(rows, cols=mat.cols)


@settings(max_examples=60, deadline=None)
@given(abelian_groups(), abelian_groups())
def test_tensor_matches_the_loop_presentation(g, h):
    n = g.n_gens * h.n_gens
    assert_same_relations(tensor(g, h).relations, loop_tensor_relations(g, h), n)


def square_matrices(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: Mat(rows, cols=n))


@settings(max_examples=60, deadline=None)
@given(abelian_groups(), abelian_groups(), st.data())
def test_balanced_tensor_matches_the_loop_presentation(g, h, data):
    slides = data.draw(st.lists(st.tuples(square_matrices(g.n_gens), square_matrices(h.n_gens)),
                                max_size=3))
    n = g.n_gens * h.n_gens
    quotient = balanced_tensor(g, h, slides)
    slid = loop_slide_rows(g, h, slides)
    assert_same_relations(quotient.relations, loop_tensor_relations(g, h) + slid, n)
    # the slide blocks come last, in the order of ``slides`` and of ``kron``
    assert quotient.relations.data[quotient.relations.rows - len(slid):] == tuple(slid)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: repr(r.add))
def test_pi0_thr_matrices_match_the_loops(ring, monkeypatch):
    n = ring.n_gens
    loops = loop_pi0_thr(ring)
    result = pi0_thr(ring)
    g = result.mackey.g
    t_span = g.relations.data[g.relations.rows - len(loops["t_span"]):]
    assert_same_relations(Mat(t_span, cols=n * n), loops["t_span"], n * n)
    assert_same_relations(
        g.relations, loop_tensor_relations(ring.add, ring.add) + loops["t_span"], n * n)
    assert_same_matrix(result.mackey.tran.matrix, loops["tran"])
    for act, rows in zip(result.module.act_g, loops["act_g"], strict=True):
        assert_same_matrix(act.matrix, rows)
    assert_same_matrix(unit_comparison(result).f_g.matrix, loops["unit"])

    # ``alpha_report`` keeps its map to itself: catch it on its way to
    # ``inverse``.
    inverted = []
    real_inverse = thr_pi0.inverse
    monkeypatch.setattr(
        thr_pi0, "inverse", lambda f: inverted.append(f) or real_inverse(f))
    alpha_report(result)
    (alpha,) = inverted
    assert_same_matrix(alpha.matrix, loops["alpha"])


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: repr(r.add))
def test_twisted_square_matches_the_loops(ring):
    r2, quotient = frobenius_twisted_square(ring)
    n = r2.n_gens
    rows = loop_tensor_relations(r2.add, r2.add) + loop_twisted_rows(r2, frobenius(r2))
    assert_same_relations(quotient.relations, rows, n * n)


# With a one-generator source every level of the source functor has one
# generator, and ``kron`` with a 1 x 1 factor is the same either way round;
# the identity of F4 and F2[t]/(t^2) -> F4 (t -> 0) have two-generator
# sources, so they see the order of every factor.
MAPS = {
    "F2->F4": lambda: ring_hom(ring_F2(), ring_F4(), [[1, 0]]),
    "F2->F2[t]/(t^2)": lambda: ring_hom(ring_F2(), ring_dual_numbers_F2(), [[1, 0]]),
    "Z->F2": lambda: ring_hom(ring_Z(), ring_F2(), [[1]]),
    "F4->F4": lambda: ring_hom(ring_F4(), ring_F4(), [[1, 0], [0, 1]]),
    "F2[t]/(t^2)->F4": lambda: ring_hom(ring_dual_numbers_F2(), ring_F4(),
                                        [[1, 0], [0, 0]]),
}


def assert_base_change_matches_the_loops(ms, ring_map):
    loops = loop_base_change(ms, ring_map)
    bc = base_change(ms, ring_map)
    for level in ("e", "g"):
        grp = getattr(bc.mackey, level)
        assert_same_relations(grp.relations, loops[f"{level}_relations"], grp.n_gens)
    for name in ("w", "res", "tran"):
        assert_same_matrix(getattr(bc.mackey, name).matrix, loops[name])
    for acts, loop_acts in ((bc.module.act_e, loops["act_e"]),
                            (bc.module.act_g, loops["act_g"])):
        for act, rows in zip(acts, loop_acts, strict=True):
            assert_same_matrix(act.matrix, rows)


@pytest.mark.parametrize("name", MAPS)
def test_base_change_matrices_match_the_loops(name):
    ring_map = MAPS[name]()
    assert_base_change_matches_the_loops(pi0_thr(ring_map.source).module, ring_map)
    rows_e, rows_g = loop_comparison(ring_map)
    comparison = verify_base_change(ring_map).comparison
    assert_same_matrix(comparison.f_e.matrix, rows_e)
    assert_same_matrix(comparison.f_g.matrix, rows_g)


def test_base_change_of_an_induced_functor_matches_the_loops():
    # On pi0 THR's modules ``w`` is the identity and, over F2-algebras,
    # ``tran`` is zero, so neither shows the order of its ``kron`` factors.
    # The induced functor of F4, with F4 acting on both summands, has the
    # swap for ``w`` and the sum for ``tran``.
    f4 = ring_F4()
    mults = [f4.multiplication_by(e).matrix for e in Mat.identity(2).data]
    ms = module_structure(f4, induced_mackey(f4.add),
                          [kron(Mat.identity(2), m) for m in mults], mults)
    assert_base_change_matches_the_loops(ms, ring_hom(f4, f4, [[1, 0], [0, 1]]))

