"""Command-line surface of the calculator.

Subcommands
-----------
``pi0thr RING``
    The zeroth homotopy Mackey functor of a ring: both levels as invariant
    factors, the restriction/transfer matrices, and the unit-comparison
    verdict with its Frobenius cross-check.
``basechange SOURCE TARGET MAP``
    Compare extension of scalars along a ring map against the directly
    computed functor of the target.
``nerve MONOID --weight V``
    One weight piece of the dihedral nerve of an affine monoid:
    nondegenerate counts, and optionally homology, fixed-point components
    and a structure-identity validation.
``projective N``
    The chart-square reports for the projective spaces (``N`` one of
    1, sigma, 2, 3, 4).  Exits 0 only if every certificate passes.
``selftest``
    Run the acceptance checks, one pass/fail line per criterion.

Description files
-----------------
All inputs are YAML mappings.

* ring: ``generators`` (names), ``orders`` (additive orders, 0 for
  infinite), ``unit`` (name or coefficient vector), ``table`` (list of
  ``[a, b, product]`` triples; symmetric pairs may be given once),
  optional ``involution`` (matrix rows).
* monoid: ``generators`` (integer vectors) and optional ``involution``
  (matrix rows), either at top level or nested under a ``monoid:`` key.
* ring map: ``map`` — one entry per source generator, each a target
  generator name or a coefficient vector in the target.

Exit codes: 0 success; 2 invalid input; 3 infeasible computation (for
example an infinite weight fiber requested without a window); 4 a failed
certificate.  Structured output is one line of versioned JSON on stdout;
progress and error messages go to stderr only.

``main`` builds its parser once per process (``build_parser`` is
cached) and every later call reuses it: the parser reads no input and
holds no per-call state, since each ``parse_args`` call returns a fresh
namespace.
"""

import argparse
import functools
import json
import os
import sys

from .cubes import p1_report, pn_report, psigma_report
from .dihedral import (
    dihedral_nerve_piece,
    fixed_subset,
    pi0,
    pointedness_bound,
    sd_sigma,
    validate_structure,
)
from .errors import CertificateError, InfeasibleError, SpecError
from .homology import homology_table, normalized_chains
from .involutive_algebra import (
    load_description,
    monoid_from_description,
    ring_from_description,
    ring_map_from_description,
)
from .selftest import run_all
from .thr_pi0 import (
    alpha_report,
    mod2_frobenius,
    pi0_thr,
    ses_check,
    verify_base_change,
)

SCHEMA_VERSION = 1


def _progress(message):
    print(message, file=sys.stderr, flush=True)


def _load(path):
    try:
        return load_description(path)
    except SpecError:
        raise
    except Exception as exc:  # unreadable file or broken YAML: bad input
        raise SpecError(f"{path}: cannot parse description file: {exc}")


def _load_monoid(path):
    desc = _load(path)
    if "monoid" in desc:
        desc = desc["monoid"]
    return monoid_from_description(desc, where=path)


def _parse_weight(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SpecError(
            f"weight must be an integer or comma-separated integers, got {text!r}"
        )


def _encode_group(g):
    return {"free_rank": g.free_rank, "torsion": list(g.invariant_factors)}


def _encode_homology(table):
    return {str(q): _encode_group(h) for q, h in sorted(table.items())}


def _homology_str(table):
    if not table:
        return "0 in every degree"
    return ", ".join(f"H{q} = {h}" for q, h in sorted(table.items()))


def _matrix_rows(m):
    return [list(row) for row in m.data]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pi0thr(args):
    path = args.ring
    ring = ring_from_description(_load(path), where=path)
    result = pi0_thr(ring)
    frob = mod2_frobenius(ring)
    alpha = alpha_report(result, frob)
    ses = ses_check(result, frob)
    mk = result.mackey
    payload = {
        "input": path,
        "e_level": _encode_group(mk.e),
        "g_level": _encode_group(mk.g),
        "res": _matrix_rows(mk.res.matrix),
        "tran": _matrix_rows(mk.tran.matrix),
        "alpha_is_iso": alpha.is_iso,
        "frobenius_surjective": alpha.frobenius_surjective,
        "ses_exact": bool(ses),
    }
    lines = [
        f"ring: {path} ({len(ring.names)} additive generators: "
        + ", ".join(ring.names) + ")",
        f"underlying level: {mk.e}",
        f"fixed level:      {mk.g}",
        f"restriction matrix (fixed -> underlying): {_matrix_rows(mk.res.matrix)}",
        f"transfer matrix (underlying -> fixed):    {_matrix_rows(mk.tran.matrix)}",
        "unit comparison a -> 1 (x) a: "
        + ("isomorphism" if alpha.is_iso else "NOT an isomorphism"),
        "frobenius cross-check: "
        + ("surjective" if alpha.frobenius_surjective else "not surjective")
        + " (consistent)",
        "short exact sequence through the fixed level: exact",
    ]
    return payload, lines, True


def cmd_basechange(args):
    src_path, tgt_path, map_path = args.source, args.target, args.ring_map
    source = ring_from_description(_load(src_path), where=src_path)
    target = ring_from_description(_load(tgt_path), where=tgt_path)
    f = ring_map_from_description(_load(map_path), source, target, where=map_path)
    report = verify_base_change(f)
    payload = {
        "source": src_path,
        "target": tgt_path,
        "map": map_path,
        "is_iso": report.is_iso,
        "base_changed_levels": [
            _encode_group(report.source_levels[0]),
            _encode_group(report.source_levels[1]),
        ],
        "direct_levels": [
            _encode_group(report.target_levels[0]),
            _encode_group(report.target_levels[1]),
        ],
    }
    lines = [
        f"base change along {map_path}: "
        + ("isomorphism" if report.is_iso else "NOT an isomorphism"),
        f"extended functor levels: ({report.source_levels[0]}, "
        f"{report.source_levels[1]})",
        f"direct computation:      ({report.target_levels[0]}, "
        f"{report.target_levels[1]})",
    ]
    if not report.is_iso:
        lines.append("obstruction: " + report.obstruction())
        payload["obstruction"] = report.obstruction()
    return payload, lines, True


def _default_q_max(monoid, weight):
    try:
        return max(1, pointedness_bound(monoid, (weight, monoid.apply_w(weight))))
    except InfeasibleError:
        return 3


def cmd_nerve(args):
    path = args.monoid
    weight = _parse_weight(args.weight)
    monoid = _load_monoid(path)
    if len(weight) != monoid.rank:
        raise SpecError(
            f"weight has {len(weight)} coordinates but the monoid lives in "
            f"rank {monoid.rank}"
        )
    q_max = args.q_max
    if q_max is None:
        q_max = _default_q_max(monoid, weight)
    piece = dihedral_nerve_piece(monoid, (weight,), q_max, window=args.window)
    counts = [piece.count(q) for q in range(q_max + 1)]
    nondeg = list(piece.nondegenerate_counts())
    payload = {
        "input": path,
        "weight": list(weight),
        "q_max": q_max,
        "window": args.window,
        "counts": counts,
        "nondegenerate_counts": nondeg,
    }
    lines = [
        f"monoid: {path}, weight {list(weight)}, truncation depth {q_max}"
        + (f", window {args.window}" if args.window is not None else ""),
        f"simplices by degree:    {counts}",
        f"nondegenerate by degree: {nondeg}",
    ]
    if args.homology:
        chains = normalized_chains(piece)
        hi = chains.valid_hi if chains.valid_hi is not None else q_max
        table = homology_table(chains.complex, range(hi + 1))
        payload["homology"] = _encode_homology(table)
        payload["homology_certified_complete"] = chains.valid_hi is None
        payload["homology_valid_through"] = hi
        lines.append(
            f"homology through degree {hi}"
            + ("" if chains.valid_hi is None else " (truncation-limited)")
            + f": {_homology_str(table)}"
        )
    if args.fixed_pi0:
        depth = max(q_max, 3)
        deep = (
            piece
            if depth == q_max
            else dihedral_nerve_piece(
                monoid, (weight,), depth, window=args.window
            )
        )
        components = pi0(fixed_subset(sd_sigma(deep)))
        payload["fixed_pi0"] = components
        lines.append(
            f"components of the reflection-fixed subdivision: {components}"
        )
    if args.validate:
        report = validate_structure(piece)
        payload["validation"] = {"ok": report.ok, "detail": report.detail}
        lines.append(f"structure identities: {report.detail}")
    return payload, lines, True


def _weight_entry_payload(entry):
    weight = entry.weight
    return {
        "weight": list(weight) if isinstance(weight, tuple) else weight,
        "chart": entry.chart,
        "method": entry.method,
        "substitutions": list(entry.substitutions),
        "acyclic": entry.acyclic,
        "homology": _encode_homology(entry.homology),
    }


def cmd_projective(args):
    n = args.n
    window = args.window if args.window is not None else 3
    if n == "sigma":
        report = psigma_report()
        ok = report.cartesian and report.mutation_breaks
        payload = {
            "n": "sigma",
            "cartesian": report.cartesian,
            "mutation_breaks": report.mutation_breaks,
            "substitutions": list(report.substitutions),
            "summands": [
                {
                    "name": s.name,
                    "input_degree": s.input_degree,
                    "homology": _encode_homology(s.homology),
                    "label": s.label,
                }
                for s in report.summands
            ],
            "ok": ok,
        }
        lines = [
            "twisted projective line, per-weight gluing square:",
            "  square cartesian: " + ("yes" if report.cartesian else "NO"),
            "  mutated entry breaks it: "
            + ("yes" if report.mutation_breaks else "NO"),
        ]
        for s in report.summands:
            label = f" [{s.label}]" if s.label else ""
            lines.append(
                f"  summand {s.name} (input degree {s.input_degree}): "
                f"{_homology_str(s.homology)}{label}"
            )
        return payload, lines, ok

    if n == "1":
        _progress(f"analysing weights -{window}..{window} of the line ...")
        report = p1_report(window)
        payload = {
            "n": "1",
            "window": window,
            "entries": [_weight_entry_payload(e) for e in report.entries],
            "ok": report.ok,
        }
        lines = [f"projective line, weights -{window}..{window}:"]
        for e in report.entries:
            verdict = "acyclic" if e.acyclic else _homology_str(e.homology)
            lines.append(
                f"  weight {e.weight:>3} [{e.chart}, {e.method}, "
                f"subst {','.join(e.substitutions)}]: {verdict}"
            )
        lines.append("all certificates pass" if report.ok else "CERTIFICATE FAILURE")
        return payload, lines, report.ok

    dim = int(n)
    _progress(
        f"analysing {(2 * window + 1) ** dim - 1} nonzero weights and the "
        f"origin assembly for n={dim} ..."
    )
    report = pn_report(dim, window)
    origin = report.origin
    payload = {
        "n": n,
        "window": window,
        "entries": [_weight_entry_payload(e) for e in report.entries],
        "origin": {
            "homology": _encode_homology(origin.homology),
            "assembled_rank": origin.assembled_rank,
            "parity_ok": origin.parity_ok,
            "substitutions": list(origin.substitutions),
            "ok": origin.ok,
        },
        "ok": report.ok,
    }
    acyclic = sum(1 for e in report.entries if e.acyclic)
    by_method = {}
    for e in report.entries:
        by_method[e.method] = by_method.get(e.method, 0) + 1
    lines = [
        f"projective {dim}-space, weight window |v|_inf <= {window}:",
        f"  nonzero weights certified acyclic: {acyclic}/{len(report.entries)} "
        + "("
        + ", ".join(f"{k}: {v}" for k, v in sorted(by_method.items()))
        + ")",
        f"  origin assembly: H0 rank {origin.assembled_rank} "
        f"(tfib {_homology_str(origin.homology)}), parity "
        + ("consistent" if origin.parity_ok else "INCONSISTENT"),
        "all certificates pass" if report.ok else "CERTIFICATE FAILURE",
    ]
    return payload, lines, report.ok


def cmd_selftest(args):
    outcomes = run_all(progress=_progress)
    ok = all(o.ok for o in outcomes)
    payload = {
        "criteria": [
            {
                "number": o.number,
                "name": o.name,
                "ok": o.ok,
                "budget_seconds": o.budget,
                "detail": o.detail,
            }
            for o in outcomes
        ],
        "ok": ok,
    }
    lines = [o.line for o in outcomes]
    lines.append(
        f"{sum(1 for o in outcomes if o.ok)}/{len(outcomes)} criteria pass"
    )
    return payload, lines, ok


_DISPATCH = {
    "pi0thr": cmd_pi0thr,
    "basechange": cmd_basechange,
    "nerve": cmd_nerve,
    "projective": cmd_projective,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("table", "structured"),
        default="table",
        help="human-readable table or one line of versioned JSON",
    )


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="thrcalc",
        description="exact calculator for the pi0 and chain-level shadows "
        "of real topological Hochschild homology",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pi0thr", help="Mackey functor of a ring description")
    p.add_argument("ring", help="ring description file")
    _add_format(p)

    p = sub.add_parser("basechange", help="compare base change with direct computation")
    p.add_argument("source", help="source ring description")
    p.add_argument("target", help="target ring description")
    p.add_argument("ring_map", metavar="map", help="ring-map description")
    _add_format(p)

    p = sub.add_parser("nerve", help="weight piece of a dihedral nerve")
    p.add_argument("monoid", help="monoid description file")
    p.add_argument("--weight", required=True,
                   help="integer or comma-separated vector; a vector whose first "
                        "coordinate is negative needs the --weight=-1,2 form")
    p.add_argument("--q-max", dest="q_max", type=int, default=None,
                   help="truncation depth (default: the pointedness bound)")
    p.add_argument("--window", type=int, default=None,
                   help="l1 bound making infinite weight fibers enumerable")
    p.add_argument("--homology", action="store_true",
                   help="report the homology table")
    p.add_argument("--fixed-pi0", dest="fixed_pi0", action="store_true",
                   help="report components of the reflection-fixed subdivision")
    p.add_argument("--validate", action="store_true",
                   help="check all simplicial/dihedral structure identities")
    _add_format(p)

    p = sub.add_parser("projective", help="chart-square reports")
    p.add_argument("n", choices=("1", "sigma", "2", "3", "4"))
    p.add_argument("--window", type=int, default=None,
                   help="weight window (default 3; ignored for sigma)")
    _add_format(p)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    _add_format(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    opts = vars(args)
    try:
        if opts.get("window") is not None and opts["window"] < 1:
            raise SpecError("window must be a positive integer")
        if opts.get("q_max") is not None and opts["q_max"] < 1:
            raise SpecError("truncation degree must be a positive integer")
        for key in ("ring", "source", "target", "ring_map", "monoid"):
            if key in opts and not os.path.exists(opts[key]):
                raise SpecError(f"input path does not exist: {opts[key]}")
        payload, lines, ok = _DISPATCH[args.subcommand](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 4
    if args.format == "structured":
        payload.update(schema_version=SCHEMA_VERSION, command=args.subcommand)
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
