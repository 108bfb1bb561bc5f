"""Answer checks that share no code with ``thrcalc``.

Each check takes the structured payload one case printed and the facts the
case was generated from, and raises :class:`Mismatch` naming the first fact
that does not hold.  The facts come from closed forms in the paper or from
linear algebra done here (GF(2) ranks and integer matrix products on the
ring's own multiplication table), never from ``thrcalc``'s own routines.
"""

from math import comb


class Mismatch(AssertionError):
    """A printed answer disagrees with the independent computation."""


def _expect(ok, message):
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------


def gf2_rank(rows):
    """Rank over GF(2) of integer vectors (reduced mod 2)."""
    pivots = {}  # leading bit -> reduced row
    for row in rows:
        bits = 0
        for i, c in enumerate(row):
            if c % 2:
                bits |= 1 << i
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                pivots[top] = bits
                break
            bits ^= pivots[top]
    return len(pivots)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def times(ring, x, e):
    """``x * g_e`` in the ring's coordinates (no reduction)."""
    n = ring.n
    out = [0] * n
    for i, c in enumerate(x):
        if c:
            for d in range(n):
                out[d] += c * ring.table[i][e][d]
    return out


def group(free_rank=0, torsion=()):
    """A group in the payload's encoding."""
    return {"free_rank": free_rank, "torsion": list(torsion)}


def additive_group(ring):
    if ring.modulus == 0:
        return group(ring.n)
    return group(0, [ring.modulus] * ring.n)


def frobenius_surjective(ring):
    """Whether ``x -> x^2`` is onto ``A/2``.  In characteristic 2 the squares
    of a basis span the image, so this asks whether they span ``A/2``."""
    if ring.modulus % 2:
        return True  # A/2 = 0
    return gf2_rank([ring.table[i][i] for i in range(ring.n)]) == ring.n


def f2_fixed_dimension(ring):
    """For an F_2-algebra ``A``, the dimension of ``(A (x) A)/T``: the tensor
    square has dimension ``n^2`` and ``T`` is spanned by
    ``x (x) a^2 y - a^2 x (x) y``, where the squares ``a^2`` are spanned by
    the squares of the generators (the doubled relations vanish)."""
    n = ring.n
    rows = []
    for i in range(n):
        square = ring.table[i][i]
        for j in range(n):
            sj = times(ring, square, j)  # a^2 * g_j
            for k in range(n):
                sk = times(ring, square, k)
                row = [0] * (n * n)
                for d in range(n):
                    row[j * n + d] += sk[d]  # g_j (x) a^2 g_k
                    row[d * n + k] -= sj[d]  # a^2 g_j (x) g_k
                rows.append(row)
    return n * n - gf2_rank(rows)


# ---------------------------------------------------------------------------
# checks, one per case kind
# ---------------------------------------------------------------------------


def check_pi0thr(payload, ring):
    n, m = ring.n, ring.modulus
    _expect(payload.get("command") == "pi0thr", "not a pi0thr payload")
    e, g = payload["e_level"], payload["g_level"]
    _expect(e == additive_group(ring),
            f"{ring.label}: underlying level {e}, expected {additive_group(ring)}")
    res, tran = payload["res"], payload["tran"]
    width = len(res)  # generators of the fixed level's presentation
    _expect(all(len(r) == n for r in res),
            f"{ring.label}: restriction matrix is not {width} x {n}")
    _expect(len(tran) == n and all(len(r) == width for r in tran),
            f"{ring.label}: transfer matrix is not {n} x {width}")
    # Double coset law with trivial involution: res o tran = 1 + w = 2.
    # (Mod 2 it holds for any res, since tran is twice an integer matrix.)
    composite = matmul(tran, res)
    for i in range(n):
        for j in range(n):
            diff = composite[i][j] - 2 * (i == j)
            _expect(diff % m == 0 if m else diff == 0,
                    f"{ring.label}: tran.res - 2I has entry {diff} at ({i}, {j})")
    surjective = frobenius_surjective(ring)
    _expect(payload["frobenius_surjective"] is surjective,
            f"{ring.label}: frobenius_surjective printed "
            f"{payload['frobenius_surjective']}, squares give {surjective}")
    _expect(payload["alpha_is_iso"] is surjective,
            f"{ring.label}: alpha_is_iso printed {payload['alpha_is_iso']}, "
            f"frobenius surjectivity is {surjective}")
    _expect(payload["ses_exact"] is True, f"{ring.label}: sequence not exact")
    if m == 2:
        d = f2_fixed_dimension(ring)
        _expect(g == group(0, [2] * d),
                f"{ring.label}: fixed level {g}, expected (Z/2)^{d}")
    if ring.family == "gf":
        _expect(g == group(0, [2] * ring.k),
                f"{ring.label}: fixed level {g}, expected (Z/2)^{ring.k}")
    if ring.family == "trunc" and m == 0:
        _expect(g["free_rank"] == ring.k,
                f"{ring.label}: fixed level free rank {g['free_rank']}, "
                f"expected {ring.k}")


def check_basechange(payload, source, target, etale):
    _expect(payload.get("command") == "basechange", "not a basechange payload")
    label = f"{source.label}->{target.label}"
    _expect(payload["is_iso"] is etale,
            f"{label}: is_iso printed {payload['is_iso']}, expected {etale}")
    direct_e, direct_g = payload["direct_levels"]
    _expect(direct_e == additive_group(target),
            f"{label}: direct underlying level {direct_e}")
    d = f2_fixed_dimension(target)
    _expect(direct_g == group(0, [2] * d),
            f"{label}: direct fixed level {direct_g}, expected (Z/2)^{d}")
    if etale:
        _expect(payload["base_changed_levels"] == payload["direct_levels"],
                f"{label}: etale base change differs from the direct levels")


def _check_nerve_common(payload, counts, nondegenerate):
    _expect(payload.get("command") == "nerve", "not a nerve payload")
    _expect(payload["counts"] == counts,
            f"weight {payload['weight']}: counts {payload['counts']}, "
            f"expected {counts}")
    _expect(payload["nondegenerate_counts"] == nondegenerate,
            f"weight {payload['weight']}: nondegenerate counts "
            f"{payload['nondegenerate_counts']}, expected {nondegenerate}")


def _check_homology(payload, ranks):
    expected = {str(q): group(r) for q, r in enumerate(ranks)}
    _expect(payload.get("homology") == expected,
            f"weight {payload['weight']}: homology {payload.get('homology')}, "
            f"expected {expected}")
    _expect(payload["homology_certified_complete"] is True,
            f"weight {payload['weight']}: homology not certified complete")


def check_nerve_nat(payload, weight, homology, fixed_pi0):
    """The weight-``j`` piece of the cyclic nerve of ``N``: a ``q``-simplex
    is a composition of ``j`` into ``q + 1`` parts, nondegenerate when the
    last ``q`` parts are positive; it is a circle."""
    j = weight
    _expect(payload["q_max"] == j, f"weight {j}: q_max {payload['q_max']}")
    _check_nerve_common(
        payload,
        [comb(j + q, q) for q in range(j + 1)],
        [comb(j, q) for q in range(j + 1)],
    )
    if homology:
        _check_homology(payload, (1, 1))
    if fixed_pi0:
        _expect(payload.get("fixed_pi0") == 2,
                f"weight {j}: fixed pi0 {payload.get('fixed_pi0')}, expected 2")


def _product_nondegenerate(q, x, y):
    """Nondegenerate ``q``-simplices of ``X x Y`` (Eilenberg-Zilber): each
    pair of nondegenerate ``p``- and ``r``-simplices contributes the
    ``q``-step lattice paths from ``(0, 0)`` to ``(p, r)``."""
    total = 0
    for p, xp in enumerate(x):
        for r, yr in enumerate(y):
            if max(p, r) <= q <= p + r:
                total += xp * yr * comb(q, p) * comb(p, p + r - q)
    return total


def check_nerve_nat2_swap(payload, weight):
    """``N^2`` with the swap at weight ``(a, b)``, ``a != b``, both >= 1: the
    orbit has two weights, each piece the product of the ``N`` pieces of
    weights ``a`` and ``b``, a torus."""
    a, b = weight
    _expect(a != b and min(a, b) >= 1, f"oracle does not cover weight {weight}")
    q_max = payload["q_max"]
    _expect(q_max == a + b, f"weight {weight}: q_max {q_max}")
    x = [comb(a, p) for p in range(a + 1)]
    y = [comb(b, r) for r in range(b + 1)]
    _check_nerve_common(
        payload,
        [2 * comb(a + q, q) * comb(b + q, q) for q in range(q_max + 1)],
        [2 * _product_nondegenerate(q, x, y) for q in range(q_max + 1)],
    )
    _check_homology(payload, (2, 4, 2))


def check_selftest(payload):
    _expect(payload.get("command") == "selftest", "not a selftest payload")
    criteria = payload["criteria"]
    _expect([c["number"] for c in criteria] == list(range(1, 11)),
            f"criteria {[c['number'] for c in criteria]}, expected 1..10")
    failed = [c["number"] for c in criteria if c["ok"] is not True]
    _expect(not failed, f"criteria {failed} fail")
    _expect(payload["ok"] is True, "selftest reports not ok")


CHECKS = {
    "pi0thr": check_pi0thr,
    "basechange": check_basechange,
    "nerve_nat": check_nerve_nat,
    "nerve_nat2_swap": check_nerve_nat2_swap,
    "selftest": check_selftest,
}


def check(case, payload):
    CHECKS[case.oracle](payload, **case.facts)
