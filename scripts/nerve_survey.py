"""Tabulate weight pieces of dihedral nerves over the monoid catalog:
simplex counts, homology, and components of the reflection-fixed locus.

Usage: python3 scripts/nerve_survey.py
"""

from thrcalc.dihedral import dihedral_nerve_piece, fixed_subset, pi0, sd_sigma
from thrcalc.homology import homology, normalized_chains
from thrcalc.involutive_algebra import (
    monoid_int_sigma,
    monoid_nat,
    monoid_nat_square_swap,
    pointedness_functional,
)


def group_str(g):
    parts = []
    if g.free_rank:
        parts.append(f"Z^{g.free_rank}" if g.free_rank > 1 else "Z")
    parts.extend(f"Z/{d}" for d in g.invariant_factors)
    return " + ".join(parts) if parts else "0"


def homology_str(piece, q_max):
    chains = normalized_chains(piece)
    hi = q_max if chains.valid_hi is None else chains.valid_hi
    cells = []
    for q in range(hi + 1):
        h = homology(chains.complex, q)
        if not h.is_trivial():
            cells.append(f"H{q}={group_str(h)}")
    return ", ".join(cells) if cells else "acyclic"


def pointed_row(monoid, weight, label):
    lam = pointedness_functional(monoid)
    q_max = max(int(sum(l * x for l, x in zip(lam, weight))), 1)
    piece = dihedral_nerve_piece(monoid, (weight,), q_max)
    deep = dihedral_nerve_piece(monoid, (weight,), max(q_max, 3))
    fixed = pi0(fixed_subset(sd_sigma(deep))).count
    nondeg = piece.nondegenerate_counts()
    print(
        f"{label:<22} depth {q_max}  nondeg {str(nondeg):<22} "
        f"{homology_str(piece, q_max):<18} fixed pi0 = {fixed}"
    )


def main():
    print("== pointed monoids (truncation from the pointedness bound) ==")
    nat = monoid_nat()
    for j in range(7):
        pointed_row(nat, (j,), f"N, weight {j}")
    swap = monoid_nat_square_swap()
    for v in ((1, 1), (2, 1), (2, 2), (3, 1)):
        pointed_row(swap, v, f"N^2 swap, weight {v}")

    print()
    print("== monoids with units (window-truncated) ==")
    zs = monoid_int_sigma()
    for w in (2, 4, 6):
        piece = dihedral_nerve_piece(zs, ((1,),), 2, window=w)
        print(
            f"Z^sigma, weight 1, window {w}: counts "
            f"{[piece.count(q) for q in range(3)]}, "
            f"nondeg {piece.nondegenerate_counts()}"
        )


if __name__ == "__main__":
    main()
