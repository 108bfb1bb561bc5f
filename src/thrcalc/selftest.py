"""Acceptance checks, shared between the command line and the test suite.

Each criterion is a named, optionally time-budgeted check returning a short
detail string.  ``thrcalc selftest`` and ``tests/test_acceptance.py`` run
the same list, so the release gate and a developer invocation cannot drift
apart.
"""

import random
import time
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from . import mackey as mackey_module
from .cubes import (
    CubeDiagram,
    _substituted_weight_cube,
    comparison,
    cospan_square,
    h_map_cofiber_check,
    origin_cube,
    p1_report,
    pn_report,
    psigma_report,
    tensor_cube,
    tfib_recursion_check,
    torus_map,
)
from .dihedral import (
    circle_model,
    dihedral_nerve_piece,
    fixed_subset,
    pi0,
    power_map_fixed_iso_check,
    sd_r,
    sd_sigma,
    shuffle_iso_check,
    trivial_monoid,
    validate_structure,
)
from .fgab import Mat, _diagonal, free_group, group, hom, snf
from .homology import (
    ChainComplex,
    ChainMap,
    fiber_les_report,
    homology,
    identity_chain_map,
    mapping_fiber,
    normalized_chains,
)
from .involutive_algebra import (
    monoid_int_sigma,
    monoid_nat,
    ring_F2,
    ring_F4,
    ring_Z,
    ring_dual_numbers_F2,
    ring_hom,
)
from .mackey import (
    burnside_mackey,
    constant_mackey,
    fixed_point_mackey,
    induced_mackey,
    mackey_direct_sum,
)
from .thr_pi0 import (
    alpha_report,
    mod2_frobenius,
    pi0_thr,
    ses_check,
    unit_comparison,
    verify_base_change,
)
from .mackey import is_mackey_iso


class Criterion(NamedTuple):
    number: int
    name: str
    budget: object  # seconds, or None for untimed checks
    run: object


class CriterionOutcome(NamedTuple):
    number: int
    name: str
    ok: bool
    elapsed: float
    budget: object
    detail: str

    @property
    def line(self):
        status = "PASS" if self.ok else "FAIL"
        timing = f"{self.elapsed:.2f}s"
        if self.budget is not None:
            timing += f" / budget {self.budget:g}s"
        return f"{status} criterion {self.number:2d} ({timing}): {self.name} — {self.detail}"


# ---------------------------------------------------------------------------
# criteria 1-3: Mackey presentations and base change
# ---------------------------------------------------------------------------


def _criterion_integers():
    result = pi0_thr(ring_Z())
    mk = result.mackey
    alpha = alpha_report(result)
    checks = (
        mk.e.free_rank == 1 and mk.e.invariant_factors == (),
        mk.g.free_rank == 1 and mk.g.invariant_factors == (),
        mk.res.matrix == Mat([(1,)], cols=1),
        mk.tran.matrix == Mat([(2,)], cols=1),
        is_mackey_iso(unit_comparison(result)),
        alpha.is_iso,
    )
    detail = (
        f"levels ({mk.e}, {mk.g}), "
        f"res {mk.res.matrix.data}, tran {mk.tran.matrix.data}, "
        f"constant-functor comparison {'iso' if checks[4] else 'NOT iso'}"
    )
    return all(checks), detail


def _criterion_dual_numbers():
    result = pi0_thr(ring_dual_numbers_F2())
    g = result.mackey.g
    frob = mod2_frobenius(result.ring)
    alpha = alpha_report(result, frob)
    ses = ses_check(result, frob)  # raises CertificateError on any failure
    checks = (
        g.free_rank == 0 and g.invariant_factors == (2, 2, 2, 2),
        not alpha.is_iso,
        not alpha.frobenius_surjective,
        bool(ses),
    )
    detail = (
        f"fixed level {g}, alpha {'iso' if alpha.is_iso else 'not iso'}, "
        f"frobenius {'surjective' if alpha.frobenius_surjective else 'not surjective'}, "
        f"sequence exact"
    )
    return all(checks), detail


def _criterion_base_change():
    f2 = ring_F2()
    into_f4 = ring_hom(f2, ring_F4(), [ring_F4().one])
    into_dual = ring_hom(f2, ring_dual_numbers_F2(), [ring_dual_numbers_F2().one])
    good = verify_base_change(into_f4)
    bad = verify_base_change(into_dual)
    checks = (
        good.is_iso,
        not bad.is_iso,
        bad.source_levels[1].invariant_factors == (2, 2),
        bad.target_levels[1].invariant_factors == (2, 2, 2, 2),
    )
    detail = (
        f"F2->F4 {'iso' if good.is_iso else 'NOT iso'}; F2->F2[t]/(t^2) "
        f"{'iso' if bad.is_iso else 'not iso'} with obstruction "
        f"{bad.source_levels[1]} vs {bad.target_levels[1]}"
    )
    return all(checks), detail


# ---------------------------------------------------------------------------
# criterion 4: double-coset verifications
# ---------------------------------------------------------------------------


def _criterion_double_coset_volume():
    before = mackey_module.double_coset_verifications
    groups = []
    for n in (1, 2, 3):
        for d in (0, 2, 3, 4, 5, 6, 8, 9, 12):
            rels = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            groups.append(group(n, rels))
    functors = [burnside_mackey()]
    for a in groups:
        functors.append(constant_mackey(a))
        functors.append(induced_mackey(a))
    for n, rows in (
        (1, [(1,)]),
        (1, [(-1,)]),
        (2, [(0, 1), (1, 0)]),
        (2, [(-1, 0), (0, 1)]),
        (2, [(0, -1), (-1, 0)]),
        (3, [(0, 1, 0), (1, 0, 0), (0, 0, -1)]),
    ):
        a = free_group(n)
        functors.append(fixed_point_mackey(a, hom(a, a, rows)))
    for m, other in combinations(functors[:22], 2):
        mackey_direct_sum(m, other)
    built = mackey_module.double_coset_verifications - before
    return built >= 200, f"{built} double-coset laws verified by this sweep"


# ---------------------------------------------------------------------------
# criteria 5-6: nerve combinatorics
# ---------------------------------------------------------------------------


def _criterion_nerve_homology_and_fixed_points():
    nat = monoid_nat()
    for j in range(1, 6):
        piece = dihedral_nerve_piece(nat, ((j,),), j)
        chains = normalized_chains(piece)
        if chains.valid_hi is not None:
            return False, f"weight {j}: no degeneracy bound certifies degree {j}"
        hs = [homology(chains.complex, q) for q in range(j + 1)]
        if hs[0] != free_group(1) or hs[1] != free_group(1):
            return False, f"weight {j}: low homology {hs[:2]} is not [Z, Z]"
        if any(not h.is_trivial() for h in hs[2:]):
            return False, f"weight {j}: homology above degree 1 does not vanish"
        fixed = fixed_subset(sd_sigma(dihedral_nerve_piece(nat, ((j,),), 3)))
        components = pi0(fixed)
        if components != 2:
            return False, f"weight {j}: fixed-point pi0 is {components}, not 2"
    return True, "weights 1..5: homology [Z, Z, 0, ...] and fixed pi0 = 2"


def _criterion_power_maps():
    nat = monoid_nat()
    for j in range(0, 4):
        for r in range(1, 4):
            witness = power_map_fixed_iso_check(nat, j, r, 3)
            if not witness.ok:
                return False, f"(j={j}, r={r}): {witness.detail}"
    return True, "all (j, r) with 0 <= j <= 3, 1 <= r <= 3 at depth 3"


# ---------------------------------------------------------------------------
# criteria 7-9: projective reports
# ---------------------------------------------------------------------------


def _criterion_line_weights():
    report = p1_report(5)
    zero = next(e for e in report.entries if e.weight == 0)
    checks = (
        report.ok,
        all(e.acyclic for e in report.entries if e.weight != 0),
        zero.homology == {0: free_group(2)},
    )
    return all(checks), (
        f"weights -5..5: nonzero acyclic, weight 0 H0 = "
        f"{zero.homology[0]}"
    )


def _criterion_twisted_line():
    report = psigma_report()
    checks = (report.cartesian, report.mutation_breaks)
    return all(checks), (
        f"square {'cartesian' if report.cartesian else 'NOT cartesian'}, "
        f"mutated entry {'breaks it' if report.mutation_breaks else 'DOES NOT break it'}"
    )


def _criterion_higher_projective():
    details = []
    ok = True
    for n in (2, 3):
        report = pn_report(n, 3)
        origin = report.origin
        ok = ok and report.ok and all(e.acyclic for e in report.entries)
        ok = ok and origin.assembled_rank == n + 1
        ok = ok and origin.homology.get(-1, free_group(0)).invariant_factors == ()
        details.append(f"n={n}: H0 rank {origin.assembled_rank}, no torsion")
    for d in range(1, 5):
        h = h_map_cofiber_check(d)
        ok = ok and h.ok and h.homology == {d: free_group(2)}
    details.append("h-map cofibers Z^2 in degrees 1..4")
    return ok, "; ".join(details)


# ---------------------------------------------------------------------------
# criterion 10: structural property suites
# ---------------------------------------------------------------------------


def _structural_objects():
    nat = monoid_nat()
    sigma = monoid_int_sigma()
    objects = [("circle model", circle_model(3))]
    for j in (1, 2, 3):
        piece = dihedral_nerve_piece(nat, ((j,),), 3)
        objects.append((f"N weight {j}", piece))
    windowed = dihedral_nerve_piece(sigma, ((1,), (-1,)), 2, window=4)
    objects.append(("Z^sigma window 4", windowed))
    two = dihedral_nerve_piece(nat, ((2,),), 3)
    objects.append(("sd_sigma of weight 2", sd_sigma(two)))
    objects.append(("sd_2 of weight 2", sd_r(dihedral_nerve_piece(nat, ((2,),), 7), 2)))
    objects.append(("fixed points", fixed_subset(sd_sigma(two))))
    return objects


def _fiber_catalog():
    maps = []
    c = ChainComplex({0: 1, 1: 1}, {1: [[4]]})
    maps.append(ChainMap(c, c, {0: [[3]], 1: [[3]]}))
    maps.append(identity_chain_map(c))
    point = ChainComplex({0: 1}, {})
    circle = ChainComplex({0: 1, 1: 1}, {})
    maps.append(ChainMap(point, circle, {0: [[1]]}))
    maps.append(ChainMap(point, point, {0: [[6]]}))
    maps.append(torus_map(Mat([(2, 0), (1, 3)], cols=2)))
    maps.append(comparison(origin_cube(2)))
    maps.append(comparison(_substituted_weight_cube(2, (1, 1), (1, 2))))
    return maps


def _random_zero_diff_map(rng):
    src_ranks = {q: rng.randrange(0, 3) for q in (0, 1)}
    dst_ranks = {q: rng.randrange(0, 3) for q in (0, 1)}
    src = ChainComplex(src_ranks, {})
    dst = ChainComplex(dst_ranks, {})
    mats = {}
    for q in (0, 1):
        if src_ranks[q]:
            mats[q] = [
                [rng.randrange(-2, 3) for _ in range(dst_ranks[q])]
                for _ in range(src_ranks[q])
            ]
    return ChainMap(src, dst, mats)


def _random_constant_cube(rng):
    r = rng.randrange(1, 3)
    c = ChainComplex({0: r, 1: r}, {})
    dims = rng.randrange(2, 4)
    # every random number is drawn here, before the cube calls its rules
    diagonals = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(dims)]

    def edge(source, target, eps, j):
        mat = [[diagonals[j][i] if i == k else 0 for k in range(r)] for i in range(r)]
        return ChainMap(c, c, {0: mat, 1: mat})

    return CubeDiagram(dims, lambda eps: c, edge)


def random_small_cubes(rng, count):
    """The cube zoo for the recursion property: tensor cubes of random maps,
    constant-entry cubes with diagonal edges, and the report cubes."""
    point = ChainComplex({0: 1}, {})
    circle = ChainComplex({0: 1, 1: 1}, {})
    legs = (
        ChainMap(point, circle, {0: [[1]]}),
        ChainMap(point, circle, {0: [[1]]}),
    )
    charts = {}  # the chart monoid of the report cubes, built once
    cubes = []
    while len(cubes) < count:
        kind = rng.randrange(3)
        if kind == 0:
            n_maps = rng.randrange(1, 3)
            cubes.append(
                tensor_cube([_random_zero_diff_map(rng) for _ in range(n_maps)])
            )
        elif kind == 1:
            cubes.append(_random_constant_cube(rng))
        else:
            pick = rng.randrange(3)
            if pick == 0:
                cubes.append(origin_cube(rng.randrange(1, 3)))
            elif pick == 1:
                cubes.append(_substituted_weight_cube(2, (1, 1), (1, 2), charts))
            else:
                cubes.append(cospan_square(*legs))
    return cubes


def _determinantal_divisors(m):
    n = min(m.rows, m.cols)
    entries = [dict(row) for row in m.sparse]
    divisors = []
    for k in range(1, n + 1):
        g = 0
        for rows, cols in product(combinations(range(m.rows), k), combinations(range(m.cols), k)):
            sub = Mat([[entries[i].get(j, 0) for j in cols] for i in rows], cols=k)
            g = gcd(g, sub.det())
            if g == 1:  # no later minor can change it
                break
        divisors.append(abs(g))
    return divisors


def _snf_sweep(rng, count):
    for index in range(count):
        rows_n = rng.randrange(0, 5)
        cols_n = rng.randrange(0, 5)
        m = Mat(
            [
                tuple(rng.randrange(-9, 10) for _ in range(cols_n))
                for _ in range(rows_n)
            ],
            cols=cols_n,
        )
        s, u, v = snf(m)
        if u @ m @ v != s:
            return False, f"matrix {index}: factorization U m V != S"
        if abs(u.det()) != 1 or abs(v.det()) != 1:
            return False, f"matrix {index}: transforms are not unimodular"
        divisors = _determinantal_divisors(m)
        diag = _diagonal(s, len(divisors))
        running = 1
        for k, expected in enumerate(divisors, start=1):
            running = abs(running * diag[k - 1]) if running else 0
            if running != expected:
                return False, (
                    f"matrix {index}: product of the first {k} diagonal "
                    f"entries is {running}, gcd of {k}x{k} minors is {expected}"
                )
    return True, None


def _criterion_structural_suites():
    for name, x in _structural_objects():
        report = validate_structure(x)
        if not report.ok:
            return False, f"identities fail on {name}: {report.detail}"
    for f in _fiber_catalog():
        les = fiber_les_report(mapping_fiber(f))
        if not les.ok:
            return False, f"fiber sequence not exact: {les.detail}"
    rng = random.Random(0)
    for index, cube in enumerate(random_small_cubes(rng, 50)):
        report = tfib_recursion_check(cube)
        if not report.ok:
            return False, f"recursion fails on random cube {index}: {report.detail}"
    nat = monoid_nat()
    pairs = (
        (nat, nat, ((1,), (1,)), 3, None),
        (nat, trivial_monoid(), ((2,), (0,)), 3, None),
        (nat, monoid_int_sigma(), ((2,), (0,)), 2, 4),
    )
    for m, l, pair, q_max, window in pairs:
        witness = shuffle_iso_check(m, l, pair, q_max, window=window)
        if not witness.ok:
            return False, f"shuffle fails on {pair}: {witness.detail}"
    ok, detail = _snf_sweep(random.Random(1), 500)
    if not ok:
        return False, detail
    return True, (
        "identities on the object catalog, exact fiber sequences, recursion "
        "on 50 random cubes, 3 shuffle pairs, 500-matrix normal-form oracle"
    )


CRITERIA = (
    Criterion(1, "pi0 THR of the integers is the constant functor", 1.0, _criterion_integers),
    Criterion(2, "dual numbers over F2: fixed level, alpha, exact sequence", 1.0, _criterion_dual_numbers),
    Criterion(3, "etale base change F2->F4 iso, non-etale map not iso", 1.0, _criterion_base_change),
    Criterion(4, "at least 200 verified double-coset instances", None, _criterion_double_coset_volume),
    Criterion(5, "nerve weights 1..5: homology and fixed-point pi0", 10.0, _criterion_nerve_homology_and_fixed_points),
    Criterion(6, "power maps identify fixed points of subdivisions", None, _criterion_power_maps),
    Criterion(7, "line report: weight 0 carries exactly two classes", 10.0, _criterion_line_weights),
    Criterion(8, "twisted-line square is cartesian, mutation breaks it", None, _criterion_twisted_line),
    Criterion(9, "higher projective spaces: weights, origin ranks, h-maps", 60.0, _criterion_higher_projective),
    Criterion(10, "structural property suites", None, _criterion_structural_suites),
)


def run_criterion(criterion):
    start = time.monotonic()
    try:
        ok, detail = criterion.run()
    except Exception as exc:  # a failing check must not kill the gate
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - start
    if ok and criterion.budget is not None and elapsed >= criterion.budget:
        ok = False
        detail = f"{detail}; exceeded the {criterion.budget:g}s budget"
    return CriterionOutcome(
        criterion.number, criterion.name, ok, elapsed, criterion.budget, detail
    )


def run_all(progress=None):
    outcomes = []
    for criterion in CRITERIA:
        if progress is not None:
            progress(f"criterion {criterion.number}: {criterion.name} ...")
        outcomes.append(run_criterion(criterion))
    return outcomes
