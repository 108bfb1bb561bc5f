"""Shared hypothesis strategies for the test suite."""

from hypothesis import strategies as st

from thrcalc import mackey as mk
from thrcalc.fgab import Mat, free_group, group, hom


def matrices(rows, cols):
    """``rows x cols`` matrices with entries in ``[-5, 5]``."""
    entries = st.lists(st.integers(-5, 5), min_size=cols, max_size=cols)
    return st.lists(entries, min_size=rows, max_size=rows).map(
        lambda data: Mat(data, cols=cols))


@st.composite
def abelian_groups(draw, max_gens=3, max_rels=3):
    """Random finitely generated abelian groups with small presentations."""
    n = draw(st.integers(min_value=0, max_value=max_gens))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=0,
            max_size=max_rels,
        )
    )
    return group(n, rows)


@st.composite
def signed_involutions(draw, n):
    """A signed-permutation involution matrix on Z^n."""
    perm = list(range(n))
    unassigned = list(range(n))
    while unassigned:
        i = unassigned.pop(0)
        if unassigned and draw(st.booleans()):
            j = unassigned.pop(draw(st.integers(0, len(unassigned) - 1)))
            perm[i], perm[j] = j, i
    signs = {}
    for i in range(n):
        orbit = min(i, perm[i])
        if orbit not in signs:
            signs[orbit] = draw(st.sampled_from([1, -1]))
    rows = [
        [signs[min(i, perm[i])] if j == perm[i] else 0 for j in range(n)]
        for i in range(n)
    ]
    return Mat(rows, cols=n)


@st.composite
def mackey_functors(draw, allow_sum=True):
    """Random Mackey functors drawn from the verified constructors."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        m = mk.constant_mackey(draw(abelian_groups()))
    elif kind == 1:
        m = mk.induced_mackey(draw(abelian_groups(max_gens=2)))
    elif kind == 2:
        m = mk.burnside_mackey()
    else:
        n = draw(st.integers(1, 3))
        a = free_group(n)
        w = hom(a, a, draw(signed_involutions(n)))
        m = mk.fixed_point_mackey(a, w)
    if allow_sum and draw(st.booleans()):
        other = draw(mackey_functors(allow_sum=False))
        m = mk.mackey_direct_sum(m, other)[0]
    return m
