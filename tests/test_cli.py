"""End-to-end tests of the command-line interface, run in-process."""

import json
import re
import shlex
from pathlib import Path

import pytest

from thrcalc import cli, selftest
from thrcalc import involutive_algebra as ia
from thrcalc.selftest import CriterionOutcome

DATA = "tests/data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    payload = json.loads(out) if out else None
    return code, payload, err


# ---------------------------------------------------------------------------
# pi0thr
# ---------------------------------------------------------------------------


def test_pi0thr_integers_table(capsys):
    code, out, _ = run(capsys, "pi0thr", f"{DATA}/ring_z.yaml")
    assert code == 0
    assert "underlying level: Z" in out
    assert "fixed level:      Z" in out
    assert "[[2]]" in out  # transfer is multiplication by two
    assert "isomorphism" in out
    assert "exact" in out


def test_pi0thr_integers_structured(capsys):
    code, payload, _ = run_json(capsys, "pi0thr", f"{DATA}/ring_z.yaml")
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["e_level"] == {"free_rank": 1, "torsion": []}
    assert payload["g_level"] == {"free_rank": 1, "torsion": []}
    assert payload["res"] == [[1]]
    assert payload["tran"] == [[2]]
    assert payload["alpha_is_iso"] is True
    assert payload["frobenius_surjective"] is True
    assert payload["ses_exact"] is True


def test_pi0thr_dual_numbers_structured(capsys):
    code, payload, _ = run_json(capsys, "pi0thr", f"{DATA}/ring_f2t.yaml")
    assert code == 0
    assert payload["e_level"] == {"free_rank": 0, "torsion": [2, 2]}
    assert payload["g_level"] == {"free_rank": 0, "torsion": [2, 2, 2, 2]}
    assert payload["alpha_is_iso"] is False
    assert payload["frobenius_surjective"] is False
    assert payload["ses_exact"] is True


def test_pi0thr_builds_the_mod2_ring_once(capsys, monkeypatch):
    """``alpha_report`` and ``ses_check`` share one mod-2 ring and its
    Frobenius, in ``pi0thr`` and in selftest criterion 2."""
    built = []
    real = ia.make_ring

    def recording(*args, **kwargs):
        built.append(kwargs.get("where"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ia, "make_ring", recording)
    code, _, _ = run(capsys, "pi0thr", f"{DATA}/ring_f2t.yaml")
    assert code == 0
    assert built.count("mod2") == 1
    built.clear()
    assert selftest.run_criterion(selftest.CRITERIA[1]).ok
    assert built.count("mod2") == 1


@pytest.mark.parametrize("orders, table, unit, levels", [
    # both levels are the sum of the answers for Z/4 and Z/2
    ("[4, 2]", "[[e, e, e], [e, f, [0, 0]], [f, f, f]]", "[1, 1]",
     {"free_rank": 0, "torsion": [2, 4]}),
    ("[0, 2]", "[[e, e, e], [e, f, f], [f, f, [0, 0]]]", "e", None),
], ids=["Z/4xZ/2", "ZxZ/2"])
def test_pi0thr_accepts_rings_with_mixed_orders(capsys, tmp_path, orders, table, unit,
                                                levels):
    """Orders that differ by generator give a Smith basis change that is not
    the identity; the table is still reduced to coset representatives."""
    path = tmp_path / "ring.yaml"
    path.write_text(f"generators: [e, f]\norders: {orders}\nunit: {unit}\ntable: {table}\n")
    code, payload, err = run_json(capsys, "pi0thr", str(path))
    assert code == 0, err
    if levels is not None:
        assert payload["e_level"] == payload["g_level"] == levels


def test_pi0thr_bad_table_exits_2(capsys):
    code, out, err = run(capsys, "pi0thr", f"{DATA}/ring_bad_table.yaml")
    assert code == 2
    assert out == ""
    assert "missing product" in err


def test_pi0thr_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "pi0thr", f"{DATA}/no_such_file.yaml")
    assert code == 2
    assert "does not exist" in err


def test_pi0thr_unparseable_yaml_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("generators: [e\n  orders: nope:\n")
    code, _, err = run(capsys, "pi0thr", str(bad))
    assert code == 2
    assert "cannot parse" in err


RING_F2 = {
    "generators": "[e]",
    "orders": "[2]",
    "unit": "e",
    "table": "[[e, e, e]]",
}


def _ring_body(**changes):
    keys = dict(RING_F2, **changes)
    return "".join(f"{key}: {value}\n" for key, value in keys.items())


@pytest.mark.parametrize(
    "kind, body, key",
    [
        ("monoid", "generators: 5\n", "generators"),
        ("monoid", "generators: [[1]]\ninvolution: 3\n", "involution"),
        ("monoid", "generators: [[true]]\n", "generators"),
        ("ring", _ring_body(generators="[[1]]"), "generators"),
        ("ring", _ring_body(orders="2"), "orders"),
        ("ring", _ring_body(orders="[yes]"), "orders"),
        ("ring", _ring_body(table="3"), "table"),
        ("ring", _ring_body(table="[5]"), "table"),
        ("ring", _ring_body(unit="0"), "unit"),
        ("ring", _ring_body(unit="[true]"), "unit"),
        ("ring", _ring_body(involution="[5]"), "involution"),
        ("map", "map: 5\n", "map"),
    ],
    ids=["monoid-generators", "monoid-involution", "monoid-generators-bool",
         "ring-generators", "ring-orders", "ring-orders-bool", "ring-table",
         "ring-table-entry", "ring-unit", "ring-unit-bool", "ring-involution",
         "map"],
)
def test_malformed_description_exits_2(capsys, tmp_path, kind, body, key):
    path = tmp_path / f"{kind}.yaml"
    path.write_text(body)
    argv = {
        "monoid": ("nerve", str(path), "--weight", "1"),
        "ring": ("pi0thr", str(path)),
        "map": ("basechange", f"{DATA}/ring_f2.yaml", f"{DATA}/ring_f4.yaml",
                str(path)),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert str(path) in err and key in err


@pytest.mark.parametrize(
    "table, product",
    [
        ("[[a, a, a], [a, b, b], [b, a, b], [b, b, [0, 0]], [b, b, a]]", "(b, b)"),
        ("[[a, a, a], [a, b, b], [b, a, [0, 0]], [b, b, a]]", "(b, a)"),
    ],
    ids=["same-pair", "swapped-pair"],
)
def test_conflicting_table_entries_exit_2(capsys, tmp_path, table, product):
    path = tmp_path / "ring.yaml"
    path.write_text(f"generators: [a, b]\norders: [0, 0]\nunit: a\ntable: {table}\n")
    code, out, err = run(capsys, "pi0thr", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: conflicting entries for product {product}" in err


@pytest.mark.parametrize("rows", ["[[1, 0]]", "[[1, 0], [0, 1], [1, 1]]"],
                         ids=["short", "long"])
def test_involution_with_the_wrong_row_count_exits_2(capsys, tmp_path, rows):
    path = tmp_path / "ring.yaml"
    path.write_text("generators: [one, x]\norders: [2, 2]\nunit: one\n"
                    "table: [[one, one, one], [one, x, x], [x, x, [1, 1]]]\n"
                    f"involution: {rows}\n")
    code, out, err = run(capsys, "pi0thr", str(path))
    assert code == 2
    assert out == ""
    assert "involution matrix is not 2 x 2" in err


# ---------------------------------------------------------------------------
# basechange
# ---------------------------------------------------------------------------


def test_basechange_field_extension_is_iso(capsys):
    code, payload, _ = run_json(
        capsys,
        "basechange",
        f"{DATA}/ring_f2.yaml",
        f"{DATA}/ring_f4.yaml",
        f"{DATA}/map_f2_to_f4.yaml",
    )
    assert code == 0
    assert payload["is_iso"] is True
    assert payload["base_changed_levels"] == payload["direct_levels"]
    assert "obstruction" not in payload


def test_basechange_square_zero_not_iso(capsys):
    code, payload, _ = run_json(
        capsys,
        "basechange",
        f"{DATA}/ring_f2.yaml",
        f"{DATA}/ring_f2t.yaml",
        f"{DATA}/map_f2_to_f4.yaml",
    )
    assert code == 0  # the verdict is report content, not a failure
    assert payload["is_iso"] is False
    assert payload["base_changed_levels"][1] == {"free_rank": 0, "torsion": [2, 2]}
    assert payload["direct_levels"][1] == {"free_rank": 0, "torsion": [2, 2, 2, 2]}
    assert "Z/2" in payload["obstruction"]


def test_basechange_unknown_generator_exits_2(capsys, tmp_path):
    bad = tmp_path / "map.yaml"
    bad.write_text("map: [zz]\n")
    code, _, err = run(
        capsys,
        "basechange",
        f"{DATA}/ring_f2.yaml",
        f"{DATA}/ring_f4.yaml",
        str(bad),
    )
    assert code == 2
    assert "zz" in err


def test_basechange_coefficient_rows_accepted(capsys, tmp_path):
    path = tmp_path / "map.yaml"
    path.write_text("map:\n  - [1, 0]\n")
    code, payload, _ = run_json(
        capsys,
        "basechange",
        f"{DATA}/ring_f2.yaml",
        f"{DATA}/ring_f4.yaml",
        str(path),
    )
    assert code == 0
    assert payload["is_iso"] is True


def test_basechange_nonmultiplicative_map_exits_2(capsys, tmp_path):
    path = tmp_path / "map.yaml"
    path.write_text("map: [x]\n")  # sends 1 to the non-idempotent generator
    code, _, err = run(
        capsys,
        "basechange",
        f"{DATA}/ring_f2.yaml",
        f"{DATA}/ring_f4.yaml",
        str(path),
    )
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# nerve
# ---------------------------------------------------------------------------


def test_nerve_nat_weight_two(capsys):
    code, payload, _ = run_json(
        capsys,
        "nerve",
        f"{DATA}/monoid_nat.yaml",
        "--weight",
        "2",
        "--homology",
        "--fixed-pi0",
        "--validate",
    )
    assert code == 0
    assert payload["q_max"] == 2  # pointedness bound, not passed explicitly
    assert payload["counts"] == [1, 3, 6]
    assert payload["nondegenerate_counts"] == [1, 2, 1]
    assert payload["homology"] == {
        "0": {"free_rank": 1, "torsion": []},
        "1": {"free_rank": 1, "torsion": []},
    }
    assert payload["homology_certified_complete"] is True
    assert payload["fixed_pi0"] == 2
    assert payload["validation"]["ok"] is True


def test_nerve_weight_zero_is_a_point(capsys):
    code, payload, _ = run_json(
        capsys, "nerve", f"{DATA}/monoid_nat.yaml", "--weight", "0", "--homology"
    )
    assert code == 0
    assert payload["counts"][0] == 1
    assert payload["nondegenerate_counts"] == [1] + [0] * (payload["q_max"])
    assert payload["homology"] == {"0": {"free_rank": 1, "torsion": []}}


def test_nerve_infinite_fiber_without_window_exits_3(capsys):
    code, out, err = run(
        capsys, "nerve", f"{DATA}/monoid_int_sigma.yaml", "--weight", "1"
    )
    assert code == 3
    assert out == ""
    assert "infeasible" in err and "infinite" in err


def test_nerve_windowed_run_succeeds(capsys):
    code, payload, _ = run_json(
        capsys,
        "nerve",
        f"{DATA}/monoid_int_sigma.yaml",
        "--weight",
        "1",
        "--window",
        "4",
        "--q-max",
        "2",
    )
    assert code == 0
    assert payload["window"] == 4
    assert payload["weight"] == [1]
    assert len(payload["counts"]) == 3


def test_nerve_weight_rank_mismatch_exits_2(capsys):
    code, _, err = run(
        capsys, "nerve", f"{DATA}/monoid_nat.yaml", "--weight", "1,2"
    )
    assert code == 2
    assert "rank" in err


def test_nerve_malformed_weight_exits_2(capsys):
    code, _, err = run(
        capsys, "nerve", f"{DATA}/monoid_nat.yaml", "--weight", "a,b"
    )
    assert code == 2
    assert "comma-separated" in err


def test_nerve_zero_window_exits_2(capsys):
    code, _, err = run(
        capsys,
        "nerve",
        f"{DATA}/monoid_nat.yaml",
        "--weight",
        "1",
        "--window",
        "0",
    )
    assert code == 2
    assert "window" in err


def test_nerve_zero_depth_exits_2(capsys):
    code, _, err = run(
        capsys,
        "nerve",
        f"{DATA}/monoid_nat.yaml",
        "--weight",
        "1",
        "--q-max",
        "0",
    )
    assert code == 2
    assert "positive" in err


# ---------------------------------------------------------------------------
# projective
# ---------------------------------------------------------------------------


def test_projective_line_report(capsys):
    code, payload, _ = run_json(capsys, "projective", "1", "--window", "2")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["entries"]) == 5
    by_weight = {e["weight"]: e for e in payload["entries"]}
    assert by_weight[0]["acyclic"] is False
    assert by_weight[0]["homology"] == {"0": {"free_rank": 2, "torsion": []}}
    for w in (-2, -1, 1, 2):
        assert by_weight[w]["acyclic"] is True
        assert by_weight[w]["homology"] == {}


def test_projective_sigma_report(capsys):
    code, payload, _ = run_json(capsys, "projective", "sigma")
    assert code == 0
    assert payload["ok"] is True
    assert payload["cartesian"] is True
    assert payload["mutation_breaks"] is True
    names = [s["name"] for s in payload["summands"]]
    assert names == ["unit", "suspension"]
    for s in payload["summands"]:
        assert s["homology"] == {"0": {"free_rank": 1, "torsion": []}}


def test_projective_plane_report(capsys):
    code, payload, err = run_json(capsys, "projective", "2", "--window", "2")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["entries"]) == 5 * 5 - 1
    assert payload["origin"]["assembled_rank"] == 3
    assert payload["origin"]["parity_ok"] is True
    assert "analysing" in err  # progress goes to the diagnostic stream
    assert all(e["acyclic"] for e in payload["entries"])


def test_projective_invalid_n_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["projective", "5"])
    assert exc.value.code == 2


def test_projective_failed_certificate_exits_4(capsys, monkeypatch):
    real = cli.pn_report(2, 1)
    broken = real._replace(ok=False)
    monkeypatch.setattr(cli, "pn_report", lambda n, window: broken)
    code, payload, _ = run_json(capsys, "projective", "2")
    assert code == 4
    assert payload is not None  # the report is still emitted
    assert payload["ok"] is False


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_structured_passes_and_is_deterministic(capsys):
    code1, payload, err = run_json(capsys, "selftest")
    code2, payload2, _ = run_json(capsys, "selftest")
    assert code1 == code2 == 0
    assert payload == payload2
    assert payload["ok"] is True
    assert len(payload["criteria"]) == 10
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 11))
    assert all(c["ok"] for c in payload["criteria"])
    assert "elapsed" not in json.dumps(payload)
    assert "criterion 1:" in err  # progress on the diagnostic stream


def test_selftest_failure_exits_4(capsys, monkeypatch):
    fake = (
        CriterionOutcome(
            number=1,
            name="stub",
            ok=False,
            elapsed=0.0,
            budget=None,
            detail="forced failure",
        ),
    )
    monkeypatch.setattr(cli, "run_all", lambda progress=None: fake)
    code, out, _ = run(capsys, "selftest")
    assert code == 4
    assert "FAIL" in out and "forced failure" in out


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_structured_output_is_one_json_line(capsys):
    code, out, _ = run(
        capsys,
        "nerve",
        f"{DATA}/monoid_nat.yaml",
        "--weight",
        "1",
        "--format",
        "structured",
    )
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


def test_structured_outputs_byte_identical(capsys):
    argv = ("pi0thr", f"{DATA}/ring_f2t.yaml", "--format", "structured")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def _readme_commands():
    """Every ``thrcalc`` line of README's *Command-line usage* section but
    ``selftest``, with backslash continuations joined."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command-line usage")[1].split("\n## ")[0]
    commands = [
        " ".join(line.split())
        for line in section.replace("\\\n", " ").splitlines()
        if line.startswith("thrcalc ") and line.split()[1] != "selftest"
    ]
    assert commands, "no thrcalc commands found in README"
    return commands


def _golden_stdout(command):
    """The recorded stdout of a README command: one file per command under
    ``tests/data/readme_stdout/``, named after its arguments."""
    args = command.removeprefix("thrcalc ").replace(f"{DATA}/", "")
    return Path(DATA) / "readme_stdout" / (re.sub(r"[^0-9A-Za-z]+", "_", args).strip("_") + ".txt")


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_exits_0(capsys, command):
    """Each README command exits 0 and prints exactly its recorded stdout.

    Refactors must leave every answer unchanged; a change of output that is
    meant re-records the file with the new stdout."""
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert out
    assert out == _golden_stdout(command).read_text()


def test_every_golden_stdout_belongs_to_a_readme_command():
    recorded = {path.name for path in (Path(DATA) / "readme_stdout").iterdir()}
    assert recorded == {_golden_stdout(c).name for c in _readme_commands()}
