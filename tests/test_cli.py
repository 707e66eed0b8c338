import json
import subprocess
import sys

import pytest

from cayleygr.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_degrees_json(capsys):
    code, out = run_cli(capsys, "verify", "degrees", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "1"
    assert doc["chamber"] == [1, 2]
    by_id = {r["id"]: r for r in doc["results"]}
    assert by_id["degrees.table"]["status"] == "pass"
    assert by_id["degrees.table"]["computed"]["2"] == 82
    assert by_id["degrees.table"]["computed"]["2'"] == 100


def test_json_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "monk", "--format", "json")
    _, second = run_cli(capsys, "verify", "monk", "--format", "json")
    assert first == second


def test_csv_format(capsys):
    code, out = run_cli(capsys, "verify", "betti", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,status,computed,expected,provenance,note"
    assert any("betti.profile,pass" in l for l in lines)


def test_chamber_flag(capsys):
    code, out = run_cli(capsys, "verify", "betti", "--chamber", "2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chamber"] == [2, 1]
    by_id = {r["id"]: r for r in doc["results"]}
    assert by_id["betti.profile"]["status"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "betti", "--chamber", "x"],
        ["verify", "betti", "--chamber", "1,1"],
        ["verify", "betti", "--chamber", "0,0"],
        ["verify", "series", "--kmax", "-1"],
        ["verify", "hilbert", "--kmax", "-1"],
        ["dump", "hilbert", "--kmax", "-1"],
    ],
    ids=["chamber-x", "chamber-1-1", "chamber-0-0", "series-kmax-neg", "hilbert-kmax-neg", "dump-kmax-neg"],
)
def test_bad_chamber_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "verify", "fixed-points", "--format", "json", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert {r["id"] for r in doc["results"]} == {"fixed-points.count", "fixed-points.triples"}


def test_dump_classes_schema(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, _ = run_cli(capsys, "dump", "classes", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc) == 15
    assert doc["8"]["codim"] == 8
    for lab, record in doc.items():
        assert set(record) == {"codim", "values"}
        assert len(record["values"]) == 15
        for poly in record["values"].values():
            assert set(poly) == {"degree", "terms"}
    # round-trip one polynomial
    from cayleygr.exact import HomogPoly

    poly = HomogPoly.from_json(doc["2"]["values"]["8"])
    assert poly.degree == 2


def test_dump_restriction_csv(capsys):
    code, out = run_cli(capsys, "dump", "restriction")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("partition,")
    assert len(lines) == 1 + 28


def test_dump_hilbert_csv(capsys):
    code, out = run_cli(capsys, "dump", "hilbert", "--kmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0,1"
    assert lines[2] == "1,28"
    assert lines[3] == "2,287"


def test_verify_all_exit_code_and_discrepancies(capsys):
    code, out = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    statuses = [r["status"] for r in doc["results"]]
    assert statuses.count("fail") == 0
    # the two misprints anticipated in advance plus the six established
    # by computation (codim-2 figure entry, restriction swap, two Chern
    # rows, the q^8 coefficient and the derived dual degree)
    flagged = sorted(r["id"] for r in doc["results"] if r["status"] == "paper-discrepancy")
    assert flagged == [
        "chern.c5",
        "chern.c6",
        "classes.sigma2-at-4'",
        "dual.derivative",
        "dual.q8-coefficient",
        "mult.duplicate-row.2*5'",
        "restriction.level-2-swap",
        "tangents.row-5",
    ]


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleygr.cli", "verify", "fixed-points"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fixed-points.count" in proc.stdout
