"""Tests of the benchmark itself: its oracles, inputs, tracer and runner.

Run from the root of the checkout: python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from oracles import Mismatch  # noqa: E402


def ring(label, family, modulus, k, seed=None):
    rng = None if seed is None else random.Random(seed)
    return inputs.make_ring(label, family, modulus, k, rng)


def z(rank):
    return {"free_rank": rank, "torsion": []}


def torsion(*factors):
    return {"free_rank": 0, "torsion": list(factors)}


def run_cli(argv):
    from thrcalc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


# ---------------------------------------------------------------------------
# linear algebra and closed forms on hand-sized cases
# ---------------------------------------------------------------------------


def test_gf2_rank():
    assert oracles.gf2_rank([]) == 0
    assert oracles.gf2_rank([[2, 4]]) == 0
    assert oracles.gf2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert oracles.gf2_rank([[1, 0], [-1, 1]]) == 2


def test_f2_fixed_dimension_on_small_algebras():
    assert oracles.f2_fixed_dimension(ring("F2", "gf", 2, 1)) == 1
    assert oracles.f2_fixed_dimension(ring("F4", "gf", 2, 2)) == 2
    # the dual numbers: squares are 1 and 0, so T = 0 and the level is (Z/2)^4
    assert oracles.f2_fixed_dimension(ring("D", "trunc", 2, 2)) == 4


def test_frobenius_surjectivity():
    assert oracles.frobenius_surjective(ring("F8", "gf", 2, 3))
    assert oracles.frobenius_surjective(ring("Z", "trunc", 0, 1))
    assert not oracles.frobenius_surjective(ring("D", "trunc", 2, 2))
    assert not oracles.frobenius_surjective(ring("Z[t]", "trunc", 0, 3))


def test_product_nondegenerate_counts_two_intervals():
    # Delta^1 x Delta^1: 4 vertices, 5 edges, 2 triangles
    x = [2, 1]
    assert [oracles._product_nondegenerate(q, x, x) for q in range(3)] == [4, 5, 2]


@pytest.mark.parametrize("seed", range(20))
def test_random_basis_gives_an_isomorphic_ring(seed):
    for family, modulus, k in (("trunc", 0, 3), ("trunc", 4, 3), ("gf", 2, 4)):
        rng = random.Random(seed)
        p, q = inputs.random_unimodular(k, rng)
        assert oracles.matmul(p, q) == [[int(i == j) for j in range(k)] for i in range(k)]
        spec = inputs.make_ring("r", family, modulus, k, random.Random(seed))

        def red(v):
            return [c % modulus for c in v] if modulus else list(v)

        def mul(x, y):
            out = [0] * k
            for j, c in enumerate(y):
                if c:
                    out = [a + c * b for a, b in zip(out, oracles.times(spec, x, j))]
            return red(out)

        basis = [[int(i == j) for j in range(k)] for i in range(k)]
        for a in basis:
            assert mul(list(spec.unit), a) == a
            for b in basis:
                assert mul(a, b) == mul(b, a)
                for c in basis:
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
        # the invariants the oracles use do not see the basis
        plain = inputs.make_ring("r", family, modulus, k, None)
        assert oracles.frobenius_surjective(spec) == oracles.frobenius_surjective(plain)
        if modulus == 2:
            assert oracles.f2_fixed_dimension(spec) == oracles.f2_fixed_dimension(plain)


# ---------------------------------------------------------------------------
# each oracle accepts the right answer and rejects an altered one
# ---------------------------------------------------------------------------


def alter(payload, path, value):
    changed = copy.deepcopy(payload)
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return changed


Z_PAYLOAD = {
    "command": "pi0thr", "e_level": z(1), "g_level": z(1), "res": [[1]],
    "tran": [[2]], "alpha_is_iso": True, "frobenius_surjective": True,
    "ses_exact": True,
}


def test_pi0thr_oracle_on_the_integers():
    spec = ring("Z", "trunc", 0, 1)
    oracles.check_pi0thr(Z_PAYLOAD, spec)
    for path, value in (
        (("tran",), [[3]]),  # tran.res = 3 != 2
        (("e_level",), torsion(2)),
        (("g_level", "free_rank"), 0),
        (("alpha_is_iso",), False),
        (("frobenius_surjective",), False),
        (("ses_exact",), False),
    ):
        with pytest.raises(Mismatch):
            oracles.check_pi0thr(alter(Z_PAYLOAD, path, value), spec)


@pytest.mark.parametrize("label,family,modulus,k", [
    ("F4", "gf", 2, 2), ("D", "trunc", 2, 2), ("Z4", "trunc", 4, 1),
    ("Z[t]", "trunc", 0, 2),
])
def test_pi0thr_oracle_against_the_program(tmp_path, label, family, modulus, k):
    spec = ring(label, family, modulus, k, seed=3)
    path = tmp_path / "ring.yaml"
    path.write_text(json.dumps(spec.description()))
    payload = json.loads(run_cli(["pi0thr", str(path), "--format", "structured"]))
    oracles.check_pi0thr(payload, spec)
    alterations = [(("alpha_is_iso",), lambda v: not v)]
    if modulus == 0:
        alterations += [
            (("e_level", "free_rank"), lambda r: r - 1),
            (("g_level", "free_rank"), lambda r: r - 1),
        ]
    else:  # one torsion factor dropped
        alterations.append((("e_level", "torsion"), lambda t: t[:-1]))
    if modulus == 2:
        alterations.append((("g_level", "torsion"), lambda t: t[:-1]))
    else:  # mod 2 the double coset law holds for any restriction
        alterations.append((("res", 0, 0), lambda v: v + 1))
    for path_, value in alterations:
        with pytest.raises(Mismatch):
            oracles.check_pi0thr(alter(payload, path_, value), spec)


def test_basechange_oracle(tmp_path):
    cases = inputs.pi0_catalog(random.Random(5), tmp_path)
    for case in cases:
        if case.oracle != "basechange" or case.facts["target"].n > 2:
            continue
        payload = json.loads(run_cli(case.argv))
        oracles.check(case, payload)
        with pytest.raises(Mismatch):
            oracles.check(case, alter(payload, ("is_iso",), lambda v: not v))
        with pytest.raises(Mismatch):
            oracles.check(case, alter(
                payload, ("direct_levels", 1, "torsion"), lambda t: t + [2]))


NAT_2 = {
    "command": "nerve", "counts": [1, 3, 6], "nondegenerate_counts": [1, 2, 1],
    "q_max": 2, "weight": [2], "homology": {"0": z(1), "1": z(1)},
    "homology_certified_complete": True, "fixed_pi0": 2,
}


def test_nerve_nat_oracle():
    oracles.check_nerve_nat(NAT_2, 2, True, True)
    for path, value in (
        (("counts", 2), 7),
        (("nondegenerate_counts", 1), 3),
        (("homology", "1"), torsion(2)),
        (("homology", "1", "free_rank"), 2),
        (("homology_certified_complete",), False),
        (("fixed_pi0",), 1),
        (("q_max",), 3),
    ):
        with pytest.raises(Mismatch):
            oracles.check_nerve_nat(alter(NAT_2, path, value), 2, True, True)


NAT2_32 = {
    "command": "nerve", "counts": [2, 24, 120, 400, 1050, 2352],
    "nondegenerate_counts": [2, 22, 74, 110, 76, 20], "q_max": 5,
    "weight": [3, 2], "homology": {"0": z(2), "1": z(4), "2": z(2)},
    "homology_certified_complete": True,
}


def test_nerve_nat2_oracle():
    oracles.check_nerve_nat2_swap(NAT2_32, (3, 2))
    for path, value in (
        (("counts", 5), 2351),
        (("nondegenerate_counts", 3), 111),
        (("homology", "1", "free_rank"), 3),
        (("homology", "2"), torsion(2)),
    ):
        with pytest.raises(Mismatch):
            oracles.check_nerve_nat2_swap(alter(NAT2_32, path, value), (3, 2))


def test_selftest_oracle():
    payload = {
        "command": "selftest", "ok": True,
        "criteria": [{"number": n, "ok": True} for n in range(1, 11)],
    }
    oracles.check_selftest(payload)
    with pytest.raises(Mismatch):
        oracles.check_selftest(alter(payload, ("criteria", 5, "ok"), False))
    with pytest.raises(Mismatch):
        oracles.check_selftest(alter(payload, ("criteria",), lambda c: c[:-1]))


# ---------------------------------------------------------------------------
# inputs, runner and tracer
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed(tmp_path):
    def snapshot(seed, where):
        cases = inputs.build("pi0-catalog", seed, where)
        return [c.name for c in cases], sorted(
            (p.name, p.read_text()) for p in Path(where).iterdir())

    assert snapshot(7, tmp_path / "a") == snapshot(7, tmp_path / "b")
    assert snapshot(7, tmp_path / "a") != snapshot(8, tmp_path / "c")


def test_case_output_is_the_same_as_a_separate_run(tmp_path):
    cases = inputs.build("nerve-ladder", 1, tmp_path)
    small = [c for c in cases if c.name.startswith("nerve N weight 3 ")]
    assert small
    for case in small:
        alone = subprocess.run(
            [sys.executable, "-m", "thrcalc.cli", *case.argv],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(SRC)},
        )
        assert run_cli(case.argv) == alone.stdout


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import thrcalc.fgab
    import thrcalc.homology

    original = thrcalc.fgab.solve_left
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert thrcalc.homology.solve_left is thrcalc.fgab.solve_left
        assert thrcalc.fgab.solve_left is not original
        tracer.reset()
        path = HERE.parent / "tests" / "data" / "monoid_nat.yaml"
        run_cli(["nerve", str(path), "--weight", "3", "--homology",
                 "--format", "structured"])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert thrcalc.fgab.solve_left is original
    assert thrcalc.homology.solve_left is original
    assert metrics["dihedral.simplices_enumerated"] == 1 + 4 + 10 + 20
    assert metrics["dihedral.nondegenerate_kept"] == 1 + 3 + 3 + 1
    assert metrics["homology.normalized_chains.calls"] >= 1
    assert metrics["fgab.snf.calls"] >= metrics["fgab.solve_left.calls"] > 0
    assert metrics["cli.self_s"] > 0
    tracer.dump(tmp_path / "spans.json")
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert len(dumped["spans"]) == metrics["trace.spans"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ("cli.main", 0.0, 10.0, -1, 0),
        ("fgab.snf", 1.0, 4.0, 0, 0),
        ("trace.hook", 4.0, 5.0, 0, 0),
        ("fgab.solve_left", 5.0, 9.0, 0, 0),
        ("fgab.snf", 6.0, 8.0, 3, 0),
    ])
    metrics = tracer.metrics()
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["fgab.snf.self_s"] == pytest.approx(5.0)
    assert metrics["fgab.self_s"] == pytest.approx(7.0)
    assert metrics["fgab.solve_left.s"] == pytest.approx(4.0)
    assert metrics["fgab.snf.calls"] == 2


def test_speed_probe_scales_each_piece_by_the_speed_near_it(monkeypatch):
    import run

    monkeypatch.setattr(run, "PROBE_SPAN", 1)
    nominal = run.REFERENCE_NOMINAL_S
    probe = run.SpeedProbe()
    # A case over [0, 10) with samples starting at 2 and 6; the loop runs
    # at nominal speed until 6 and at half of it from then on.
    probe.samples = [(-1.0, nominal)] * 4 + [(2.0, nominal), (6.0, 2 * nominal)] + \
        [(11.0, 2 * nominal)] * 4
    pieces = probe.scaled(0.0, 10.0)
    # [0, 2) at nominal speed; [2, 6) less the loop's own time, at the
    # median of the samples on its two sides; [6, 10) likewise, at half.
    middle = nominal / statistics.median([nominal, 2 * nominal])
    assert pieces == pytest.approx(2.0 + (4.0 - nominal) * middle + (4.0 - 2 * nominal) / 2)


def test_speed_probe_samples_while_armed_and_disarms():
    import signal
    import time

    import run

    before = signal.getsignal(signal.SIGPROF)
    probe = run.SpeedProbe(interval=0.005)
    with probe:
        start = time.thread_time()
        while time.thread_time() - start < 0.2:
            sum(range(1000))
        end = time.thread_time()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    inside = [d for s, d in probe.samples if start <= s < end]
    assert len(inside) >= 5 and all(d > 0 for d in inside)
    probe.sample()
    assert 0 < probe.scaled(start, end) < 10 * (end - start)
