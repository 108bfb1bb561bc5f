"""Seeded inputs for the benchmark workloads.

Every workload is a list of :class:`Case` objects: one ``thrcalc`` command
line, the description files it reads, and the facts its independent oracle
needs.  The seed only picks, for each ring but the largest, a unimodular
change of additive basis with small entries, and the order of the cases.
None of the answers the oracles check depends on the basis, so every seed
is checked the same way.

Description files are written as JSON, which is a subset of YAML.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

@dataclass(frozen=True)
class RingSpec:
    """A commutative ring with trivial involution, free of rank ``n`` over
    ``Z/modulus`` (``modulus`` 0 meaning ``Z``), given by its table in the
    basis the seed chose.

    ``family`` names the closed form the oracle may use: ``"gf"`` for the
    field with ``2**k`` elements, ``"trunc"`` for ``(Z/modulus)[t]/(t^k)``.
    """

    label: str
    family: str
    modulus: int
    k: int
    table: tuple  # table[i][j] = coefficient vector of g_i * g_j
    unit: tuple

    @property
    def n(self):
        return len(self.unit)

    def description(self):
        names = [f"g{i}" for i in range(self.n)]
        return {
            "generators": names,
            "orders": [self.modulus] * self.n,
            "unit": list(self.unit),
            "table": [
                [names[i], names[j], list(self.table[i][j])]
                for i in range(self.n)
                for j in range(i, self.n)
            ],
        }


@dataclass(frozen=True)
class Case:
    """One command line with what its oracle needs.

    ``argv`` is what ``thrcalc.cli.main`` receives; ``files`` lists the
    description files it reads as ``setup_probe.py`` entries; ``oracle``
    names the check in :mod:`oracles` and ``facts`` holds its inputs;
    ``largest`` marks the case ``largest_case_s`` times.
    """

    name: str
    argv: tuple
    oracle: str
    facts: dict = field(default_factory=dict)
    files: tuple = ()
    largest: bool = False


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

# Irreducible polynomials over F_2, low coefficient first, for F_{2^k}.
_IRREDUCIBLE = {1: (0, 1), 2: (1, 1, 1), 3: (1, 1, 0, 1), 4: (1, 1, 0, 0, 1)}


def _reduce(vec, modulus):
    return tuple(c % modulus for c in vec) if modulus else tuple(vec)


def truncated_polynomials(modulus, k):
    """``(Z/modulus)[t]/(t^k)`` on the basis ``1, t, ..., t^(k-1)``."""
    table = tuple(
        tuple(
            tuple(int(i + j == d) for d in range(k)) if i + j < k else (0,) * k
            for j in range(k)
        )
        for i in range(k)
    )
    unit = tuple(int(d == 0) for d in range(k))
    return table, unit


def binary_field(k):
    """``F_{2^k}`` on the basis ``1, x, ..., x^(k-1)``, ``x`` a root of the
    polynomial in ``_IRREDUCIBLE``."""
    poly = _IRREDUCIBLE[k]

    def times(i, j):
        coeffs = [0] * (2 * k)
        coeffs[i + j] = 1
        for d in range(2 * k - 1, k - 1, -1):
            if coeffs[d]:
                coeffs[d] = 0
                for e, c in enumerate(poly[:k]):
                    coeffs[d - k + e] ^= c
        return tuple(coeffs[:k])

    table = tuple(tuple(times(i, j) for j in range(k)) for i in range(k))
    unit = tuple(int(d == 0) for d in range(k))
    return table, unit


def random_unimodular(n, rng):
    """A random ``n x n`` integer matrix of determinant +-1 with small
    entries, and its inverse: a signed permutation followed by ``n``
    elementary row additions."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    # inverse of a signed permutation: transpose
    q = [[p[j][i] for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # row_i(p) += c * row_j(p); then q loses c * column_i into column_j
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def _vec_mat(v, m):
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def change_basis(table, unit, modulus, p, q):
    """Rewrite a ring in the basis ``g'_i = sum_j p[i][j] g_j``; ``q`` is the
    inverse of ``p``.  Coordinates ``x`` in the old basis become ``x q``."""
    n = len(unit)
    new_table = []
    for a in range(n):
        row = []
        for b in range(n):
            old = [0] * n
            for i in range(n):
                for j in range(n):
                    coeff = p[a][i] * p[b][j]
                    if coeff:
                        for d in range(n):
                            old[d] += coeff * table[i][j][d]
            row.append(_reduce(_vec_mat(old, q), modulus))
        new_table.append(tuple(row))
    return tuple(new_table), _reduce(_vec_mat(unit, q), modulus)


def make_ring(label, family, modulus, k, rng):
    """The ring in a basis drawn from ``rng``, or in its monomial basis when
    ``rng`` is None."""
    if family == "gf":
        table, unit = binary_field(k)
    else:
        table, unit = truncated_polynomials(modulus, k)
    if rng is not None:
        p, q = random_unimodular(len(unit), rng)
        table, unit = change_basis(table, unit, modulus, p, q)
    return RingSpec(label, family, modulus, k, table, unit)


def _modulus_label(m):
    return "Z" if m == 0 else f"Z{m}"


# (label, family, modulus, k) of every ring under ``pi0thr``
PI0_RINGS = (
    ("Z", "trunc", 0, 1),
    ("F2", "gf", 2, 1),
    ("F4", "gf", 2, 2),
    ("F8", "gf", 2, 3),
    ("Z4", "trunc", 4, 1),
) + tuple(
    (f"{_modulus_label(m)}[t]_t{k}", "trunc", m, k)
    for m in (0, 2, 4)
    for k in (2, 3)
) + (("Z[t]_t4", "trunc", 0, 4),)

LARGEST_PI0 = "Z[t]_t4"
ETALE_DEGREES = (1, 2, 3, 4)  # F2 -> F_{2^k}
NON_ETALE_DEGREES = (2, 3)  # F2 -> F2[t]/(t^k)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write(workdir, name, desc):
    path = workdir / name
    path.write_text(json.dumps(desc, indent=1) + "\n")
    return str(path)


def pi0_catalog(rng, workdir):
    cases = []
    for label, family, m, k in PI0_RINGS:
        # The largest case keeps its monomial basis on every seed: its time
        # varies by up to 1.7x between random bases (the SNF pivot order
        # follows the basis), more than any bound on ``largest_case_s``.
        largest = label == LARGEST_PI0
        ring = make_ring(label, family, m, k, None if largest else rng)
        path = _write(workdir, f"ring_{label}.yaml", ring.description())
        cases.append(
            Case(
                f"pi0thr {label}",
                ("pi0thr", path, "--format", "structured"),
                "pi0thr",
                {"ring": ring},
                files=(("ring", path),),
                largest=largest,
            )
        )
    source = make_ring("F2", "gf", 2, 1, rng)
    src_path = _write(workdir, "ring_F2_source.yaml", source.description())
    targets = [("gf", k, True) for k in ETALE_DEGREES] + [
        ("trunc", k, False) for k in NON_ETALE_DEGREES
    ]
    for family, k, etale in targets:
        label = f"F{2 ** k}" if family == "gf" else f"Z2[t]_t{k}"
        target = make_ring(label, family, 2, k, rng)
        tgt_path = _write(workdir, f"target_{label}.yaml", target.description())
        # F2 has one generator, the unit; it goes to the target's unit.
        map_path = _write(
            workdir, f"map_F2_{label}.yaml", {"map": [list(target.unit)]}
        )
        cases.append(
            Case(
                f"basechange F2->{label}",
                ("basechange", src_path, tgt_path, map_path,
                 "--format", "structured"),
                "basechange",
                {"source": source, "target": target, "etale": etale},
                files=(("map", src_path, tgt_path, map_path),),
            )
        )
    return cases


NAT = {"generators": [[1]]}
NAT2_SWAP = {"generators": [[1, 0], [0, 1]], "involution": [[0, 1], [1, 0]]}
NAT_COUNTS_WEIGHT = 10
NAT_HOMOLOGY_WEIGHTS = tuple(range(1, 9))
NAT2_WEIGHT = (3, 2)


def nerve_ladder(rng, workdir):
    nat = _write(workdir, "monoid_nat.yaml", NAT)
    nat2 = _write(workdir, "monoid_nat2_swap.yaml", NAT2_SWAP)
    j = NAT_COUNTS_WEIGHT
    cases = [
        Case(
            f"nerve N weight {j}",
            ("nerve", nat, "--weight", str(j), "--format", "structured"),
            "nerve_nat",
            {"weight": j, "homology": False, "fixed_pi0": False},
            files=(("monoid", nat),),
        )
    ]
    for j in NAT_HOMOLOGY_WEIGHTS:
        cases.append(
            Case(
                f"nerve N weight {j} homology fixed-pi0",
                ("nerve", nat, "--weight", str(j), "--homology", "--fixed-pi0",
                 "--format", "structured"),
                "nerve_nat",
                {"weight": j, "homology": True, "fixed_pi0": True},
                files=(("monoid", nat),),
            )
        )
    a, b = NAT2_WEIGHT
    cases.append(
        Case(
            f"nerve N^2 swap weight {a},{b} homology",
            ("nerve", nat2, "--weight", f"{a},{b}", "--homology",
             "--format", "structured"),
            "nerve_nat2_swap",
            {"weight": (a, b)},
            files=(("monoid", nat2),),
            largest=True,
        )
    )
    return cases


def selftest(rng, workdir):
    return [
        Case("selftest", ("selftest", "--format", "structured"), "selftest",
             largest=True)
    ]


MAKERS = {
    "pi0-catalog": pi0_catalog,
    "nerve-ladder": nerve_ladder,
    "selftest": selftest,
}
WORKLOADS = tuple(MAKERS)


def build(workload, seed, workdir):
    """Write the workload's description files for ``seed`` into ``workdir``
    and return its cases in the order the seed picks."""
    rng = random.Random(f"{workload}/{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cases = MAKERS[workload](rng, workdir)
    rng.shuffle(cases)
    return cases
