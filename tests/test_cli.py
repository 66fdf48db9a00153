"""End-to-end checks of the command-line verbs and their exit codes."""

import json

import pytest

from gf2designs.cli import main
from gf2designs.km import parse_km_dump

KNUTH_FILE = """\
# classic 7-column toy instance with one solution
p cover 7 6
2 4 5
0 3 6
1 2 5
0 3
1 6
3 4 6
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_and_usage_exit_codes(capsys):
    code, _, _ = run(capsys, ["--help"])
    assert code == 0
    code, _, _ = run(capsys, [])
    assert code == 2
    code, _, _ = run(capsys, ["no-such-verb"])
    assert code == 2
    code, _, _ = run(capsys, ["table-row", "G_31", "--timeout", "1", "--no-timeout"])
    assert code == 2
    # NaN would disable the deadline; a negative one stops after 65,536 nodes
    for value in ("nan", "-1", "inf"):
        code, _, err = run(capsys, ["table-row", "G_8_1", "--timeout", value])
        assert code == 2
        assert "--timeout" in err


def test_verify_theory_text(capsys):
    code, out, _ = run(capsys, ["verify-theory", "--v-max", "13"])
    assert code == 0
    assert out.strip().endswith("ok")
    assert "census-identities" in out


def test_verify_theory_json(capsys):
    code, out, _ = run(capsys, ["verify-theory", "--v-max", "9", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["checks"]["point-orbit-cross-check"] > 0
    assert report["v_max"] == 9


def test_verify_theory_rejects_tiny_vmax(capsys):
    code, _, err = run(capsys, ["verify-theory", "--v-max", "2"])
    assert code == 2
    assert "v-max" in err


def test_table_row_orbit_sum_group(capsys):
    code, out, _ = run(capsys, ["table-row", "G_31"])
    assert code == 0
    assert "verdict: orbit-sum" in out
    assert "match: yes" in out
    assert "31^86 1^1" in out


def test_table_row_json_schema(capsys):
    code, out, _ = run(capsys, ["table-row", "G_31", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verb"] == "table-row"
    assert report["group"] == "G_{31}"
    assert report["verdict"] == "orbit-sum"
    assert report["expected_verdict"] == "orbit-sum"
    assert report["matched"] is True
    assert report["n_rows"] == 87 and report["n_cols"] == 270
    assert report["t_signature"] == "31^86 1^1"
    assert report["k_signature"] == "31^381"
    assert report["reduced_signature"] == "31^270"
    assert report["nodes"] == 0
    assert report["elapsed"] >= 0


def test_table_row_zero_row_group(capsys):
    code, out, _ = run(capsys, ["table-row", "G_{4,2}", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "zero-row"
    assert report["matched"] is True
    assert report["reduced_signature"] == "4^2032 1^43"


def test_table_row_open_group_times_out_and_still_matches(capsys):
    code, out, _ = run(capsys, ["table-row", "G_{3,1}", "--timeout", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "timeout"
    assert report["expected_verdict"] == "open"
    assert report["matched"] is True
    assert report["t_signature"] == "3^882 1^21"
    assert report["k_signature"] == "3^3930 1^21"
    assert report["reduced_signature"] == "3^3720 1^21"
    assert report["nodes"] > 0


def test_table_row_unknown_group(capsys):
    code, _, err = run(capsys, ["table-row", "G_99"])
    assert code == 2
    assert "unknown group" in err


def test_force_fixed_blocks_requires_order_two(capsys):
    code, _, err = run(capsys, ["table-row", "G_31", "--force-fixed-blocks"])
    assert code == 2
    assert "order 2" in err


def test_force_fixed_blocks_on_the_involution(capsys):
    argv = ["table-row", "G_2", "--force-fixed-blocks", "--timeout", "2", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "timeout"
    assert report["matched"] is True
    assert report["n_rows"] == 1379 and report["n_cols"] == 4947


def test_solve_sat_file(tmp_path, capsys):
    path = tmp_path / "toy.cover"
    path.write_text(KNUTH_FILE)
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 0
    assert "status: sat" in out
    assert "solution: 0 3 4" in out


def test_solve_json_and_max_solutions(tmp_path, capsys):
    path = tmp_path / "toy.cover"
    path.write_text(KNUTH_FILE)
    code, out, _ = run(capsys, ["solve", str(path), "--max-solutions", "4", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "sat"
    assert report["solutions"] == [[0, 3, 4]]
    assert report["nodes"] > 0


def test_solve_unsat_file(tmp_path, capsys):
    path = tmp_path / "bad.cover"
    path.write_text("p cover 2 1\n0\n")
    code, out, _ = run(capsys, ["solve", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "unsat"


def test_solve_forced_conflict_reports_unsat(tmp_path, capsys):
    path = tmp_path / "conflict.cover"
    path.write_text("p cover 2 2\n0 1\n0\nf 0\nf 1\n")
    code, out, _ = run(capsys, ["solve", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "unsat"
    assert "conflict" in report["note"]


def test_solve_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.cover"
    path.write_text("p cover x 2\n0\n1\n")
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2
    assert "line 1" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/q.cover"])
    assert code == 2
    assert "no such problem file" in err


def test_orbits_verb_with_expectation(capsys):
    code, out, _ = run(capsys, ["orbits", "G_31", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["n_orbits"] == 381
    assert report["signature"] == "31^381"
    assert report["expected"] == "31^381"
    assert report["matched"] is True


def test_orbits_verb_without_expectation(capsys):
    code, out, _ = run(capsys, ["orbits", "G_31", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["expected"] is None
    # no table entry for the point layer; the signature must still tally
    assert report["n_orbits"] == sum(
        int(part.split("^")[1]) for part in report["signature"].split()
    )


def test_orbit_cache_roundtrip(tmp_path, capsys):
    args = ["orbits", "G_31", "3", "--orbit-cache", str(tmp_path), "--json"]
    code, first, _ = run(capsys, args)
    assert code == 0
    cache = tmp_path / "G_31_r3.orb"
    assert cache.exists()
    code, second, _ = run(capsys, args)
    assert code == 0
    assert json.loads(first) == json.loads(second)


def test_orbit_cache_mismatch_is_an_error(tmp_path, capsys):
    argv = ["orbits", "G_31", "3", "--orbit-cache", str(tmp_path), "--json"]
    assert run(capsys, argv)[0] == 0
    # masquerade the G_31 cache as a G_2 cache
    (tmp_path / "G_2_r3.orb").write_bytes((tmp_path / "G_31_r3.orb").read_bytes())
    code, _, err = run(capsys, ["orbits", "G_2", "3", "--orbit-cache", str(tmp_path)])
    assert code == 1
    assert "different computation" in err


def test_km_build_with_dump(tmp_path, capsys):
    dump_path = tmp_path / "g31.km"
    code, out, _ = run(
        capsys, ["km-build", "G_31", "--dump-km", str(dump_path), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["matched"] is True
    assert report["screen"] == "orbit-sum"
    assert report["zero_rows"] > 0
    dump = parse_km_dump(dump_path.read_text())
    assert dump.group_name == "G_{31}"
    assert dump.n_rows == 87 and dump.n_cols == 381
    sums = {}
    for i, _, val in dump.entries:
        sums[i] = sums.get(i, 0) + val
    assert set(sums.values()) == {31}


def test_table_row_dump_km(tmp_path, capsys):
    dump_path = tmp_path / "row.km"
    code, _, _ = run(
        capsys, ["table-row", "G_31", "--dump-km", str(dump_path), "--json"]
    )
    assert code == 0
    assert dump_path.read_text().startswith("2 3 7 G_{31} 87 381 1\n")
