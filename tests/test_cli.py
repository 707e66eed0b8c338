import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr import equivariant, invariants
from cayleygr.cli import main
from cayleygr.exact import HomogPoly, poly_mul
from cayleygr.cayley import DIMENSION
from cayleygr.fixtures import FORM_DEGREE_BOUND, fixtures_dir, parse_form


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


def test_off_chamber_report_skips_only_the_label_check(capsys):
    # off the default chamber, betti.profile and betti.total come out the
    # same and betti.codim-equals-label is skipped: one result fewer
    _, default = run_cli(capsys, "verify", "all", "--format", "json")
    code, off = run_cli(capsys, "verify", "all", "--chamber", "2,1", "--format", "json")
    assert code == 0
    default, off = json.loads(default), json.loads(off)
    assert (default.pop("chamber"), off.pop("chamber")) == ([1, 2], [2, 1])
    skipped = [r for r in default["results"] if r["id"] == "betti.codim-equals-label"]
    assert len(skipped) == 1
    default["results"].remove(skipped[0])
    assert off == default
    assert len(off["results"]) == 86


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "betti", "--chamber", "x"],
        ["verify", "betti", "--chamber", "1,1"],
        ["verify", "betti", "--chamber", "0,0"],
        ["verify", "series", "--kmax", "-1"],
        ["verify", "hilbert", "--kmax", "-1"],
        ["dump", "hilbert", "--kmax", "-1"],
        ["verify", "series", "--kmax", "101"],
        ["verify", "hilbert", "--kmax", "101"],
        ["dump", "hilbert", "--kmax", "101"],
    ],
    ids=[
        "chamber-x", "chamber-1-1", "chamber-0-0", "series-kmax-neg", "hilbert-kmax-neg", "dump-kmax-neg",
        "series-kmax-101", "hilbert-kmax-101", "dump-kmax-101",
    ],
)
def test_bad_chamber_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_series_kmax_0_checks_through_k1(capsys):
    code, out = run_cli(capsys, "verify", "series", "--kmax", "0", "--format", "json")
    assert code == 0
    by_id = {r["id"]: r for r in json.loads(out)["results"]}
    assert by_id["series.identity"]["computed"] == "k = 0..1"
    assert by_id["series.k1"]["status"] == "pass"


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
    assert doc["2"]["values"]["8"]["degree"] == 2


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


def test_check_ids_are_unique(capsys):
    code, out = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    ids = Counter(r["id"] for r in json.loads(out)["results"])
    assert [i for i, n in ids.items() if n > 1] == []


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleygr.cli", "verify", "fixed-points"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fixed-points.count" in proc.stdout


def _missing_directory(tmp_path):
    missing = tmp_path / "nonexistent"
    return missing, ["verify", "degrees"], [str(missing), ".json", "No such file or directory"]


def _edited_fixtures(tmp_path, name, edit):
    """A copy of the fixtures whose <name>.json is edit(original text), encoded as UTF-8 unless bytes."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), fixtures)
    bad = fixtures / f"{name}.json"
    original = bad.read_text(encoding="utf-8")
    text = edit(original)
    assert text != original
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return fixtures, bad


def _fixture_case(name, topic, edit, expected):
    def setup(tmp_path):
        fixtures, bad = _edited_fixtures(tmp_path, name, edit)
        return fixtures, ["verify", topic], [str(bad), *expected]

    return setup


def _restriction_case(edit, expected):
    return _fixture_case("restriction", "restriction", edit, expected)


_malformed_json = _restriction_case(lambda text: "{not json", ["line 1 column 2"])
_not_utf8 = _restriction_case(lambda text: b"\xff\xfe" + text.encode("utf-16-le"), ["not UTF-8"])
_table_not_object = _restriction_case(lambda text: "[]", ["'table' is not an object"])
_coefficient_not_integer = _restriction_case(
    lambda text: text.replace('"21": {"3": 1, "3\'": 2}', '"21": {"3": "x", "3\'": 2}'), ["table['21']['3']", "'x' is not an integer"]
)
_unknown_partition = _restriction_case(lambda text: text.replace('"21":', '"12":'), ["table key '12'"])
_degrees_not_object = _fixture_case("degrees", "degrees", lambda text: '{"degrees": []}', ["'degrees' is not an object"])
_monk_not_integer = _fixture_case(
    "bruhat_monk", "monk", lambda text: text.replace('"2": {"3": 1,', '"2": {"3": "x",'), ["monk['2']['3']", "'x' is not an integer"]
)
_chern_row_not_object = _fixture_case(
    "chern", "chern", lambda text: text.replace('"1": {"1": 4}', '"1": [1]'), ["classes['1'] is not an object"]
)

_figure_not_form = _fixture_case(
    "gkm_sigma2", "classes", lambda text: text.replace('"4": "b(b-g)"', '"4": "q"'), ["values['4']", "'q' is not a form expression"]
)
_dual_too_short = _fixture_case(
    "dual_polynomial", "dual", lambda text: text.replace("344, -860, 1492, -1784, 1438, -738, 182]", "344]"), ["'coefficients' is not a list of 9 integers"]
)
_figure_not_label = _fixture_case(
    "gkm_sigma2", "classes", lambda text: text.replace('"0": "0",', '"9": "0", "0": "0",'), ["values key '9'", "not a point label"]
)
_figure_missing_vertex = _fixture_case(
    "gkm_sigma1", "classes", lambda text: text.replace('"7": "b-3g", ', ""), ["values has no key '7'"]
)
_figure_missing_vertex_sigma2 = _fixture_case(
    "gkm_sigma2", "classes", lambda text: text.replace('"3": "2b(b-a)", ', ""), ["values has no key '3'"]
)
_restriction_missing_shape = _restriction_case(lambda text: text.replace('    "3": {"3\'": 1},\n', ""), ["table has no key '3'"])
_fixed_points_unknown_weight = _fixture_case(
    "fixed_points", "degrees", lambda text: text.replace('"triple": ["a", "b", "-g"]', '"triple": ["a", "b", "q"]'), ["points[0]['triple']", "'q'"]
)
_fixed_points_missing_row = _fixture_case(
    "fixed_points", "fixed-points", lambda text: text[: text.index('"points"')] + '"points": []}', ["'points' has no row for the member triple"]
)
_fixed_points_renamed_label = _fixture_case(
    "fixed_points", "gkm", lambda text: text.replace("\"4''\"", "\"4'''\""), ["['label'] = \"4'''\"", "not a new point label"]
)


def _chamber_fixed_points_malformed(tmp_path):
    # checking that the chamber is generic reads the fixed points while the arguments are parsed
    fixtures, bad = _edited_fixtures(tmp_path, "fixed_points", lambda text: "{not json")
    return fixtures, ["verify", "betti", "--chamber", "2,1"], [str(bad), "line 1 column 2"]


_mult_row_not_object = _fixture_case(
    "mult_table", "mult", lambda text: text.replace('{"left": "2",  "right": "2",  "result": {"4": 1, "4\'": 2, "4\'\'": 2}}', "[1]"), ["rows[0] is not an object"]
)
_mult_row_without_right = _fixture_case(
    "mult_table", "mult", lambda text: text.replace('{"left": "2",  "right": "2",', '{"left": "2",', 1), ["rows[0] is not an object"]
)
_mult_duplicate_not_pair = _fixture_case(
    "mult_table", "mult", lambda text: text.replace('"duplicate_of": ["4\'", "4\'"]', '"duplicate_of": "4\'"'), ["rows[32]", "a list of two point labels"]
)
_integer_too_long = _fixture_case("degrees", "degrees", lambda text: text.replace('"8": 1', '"8": 1' + "0" * 5000), ["digits"])
_json_nested_too_deep = _fixture_case("degrees", "degrees", lambda text: "[" * 100_000 + "]" * 100_000, ["nested too deeply"])
_figure_nested_too_deep = _fixture_case(
    "gkm_sigma1", "classes", lambda text: text.replace('"7": "b-3g"', '"7": "' + "(" * 3000 + "b-3g" + ")" * 3000 + '"'),
    ["values['7']", "not of the printed shape at character 0"],
)
_figure_degree_too_high = _fixture_case(
    "gkm_sigma1", "classes", lambda text: text.replace('"7": "b-3g"', '"7": "(a+b)^1600"'), ["values['7']", "exponent 1600 above 8"]
)
# a product of integer literals has degree 0, so only the shape bounds its work
_LITERAL_PRODUCT = " ".join(["9" * 4000] * 50)
_figure_literal_product = _fixture_case(
    "gkm_sigma1", "classes", lambda text: text.replace('"7": "b-3g"', f'"7": "{_LITERAL_PRODUCT}"'), ["values['7']", "not of the printed shape"]
)


@pytest.mark.parametrize(
    "expr",
    [
        "", "2+", "a^", "a^b", "(a", "a)", "q", "aaaaaaaaa", "(a^2)^5", "2^9", "(" * 17 + "a" + ")" * 17,
        "2 3", "((a))", "2^8", "(a^2)", pytest.param(_LITERAL_PRODUCT, id="literal-product"),
    ],
)
def test_parse_form_rejects_with_value_error(expr):
    # form_table turns exactly this error into a FixtureError
    with pytest.raises(ValueError):
        parse_form(expr)


def test_parse_form_bounds():
    # the figures hold classes of degree at most the dimension, which the
    # parser's bound must match (cayley imports fixtures, so it cannot import it)
    assert FORM_DEGREE_BOUND == DIMENSION
    assert parse_form("aaaaaaaa").degree == parse_form("(a+b)^8").degree == DIMENSION


def _signed(c, first, unit=""):
    """The integer c as a printed coefficient: its sign, then its digits, or ``unit`` for +-1."""
    sign = "-" if c < 0 else "" if first else "+"
    return sign + (unit if abs(c) == 1 else str(abs(c)))


@st.composite
def printed_forms(draw):
    """A figure value in the printed syntax and the form it denotes, built without the parser."""
    degree = draw(st.integers(0, FORM_DEGREE_BOUND))
    text, form = "", HomogPoly.zero(degree)
    for t in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-50, 50))
        term = HomogPoly.constant(c)
        text += _signed(c, t == 0, "" if degree else "1")
        left = degree
        while left:
            exponent = draw(st.integers(1, min(3, left)))
            left -= exponent
            ca, cb, cg = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
            nonzero = [(k, x) for k, x in zip((ca, cb, cg), "abg") if k]
            linear = "".join(_signed(k, i == 0) + x for i, (k, x) in enumerate(nonzero))
            text += linear if len(linear) == 1 else f"({linear})"
            text += f"^{exponent}" if exponent > 1 else ""
            for _ in range(exponent):
                term = poly_mul(term, HomogPoly.linear(ca - cg, cb - cg))  # g = -a - b
        form = form + term
    return text, form


@settings(max_examples=200, deadline=None)
@given(printed_forms())
def test_parse_form_reads_printed_shape(case):
    text, form = case
    assert parse_form(text) == form


@pytest.mark.parametrize(
    "setup",
    [
        _missing_directory,
        _malformed_json,
        _not_utf8,
        _table_not_object,
        _coefficient_not_integer,
        _unknown_partition,
        _degrees_not_object,
        _monk_not_integer,
        _chern_row_not_object,
        _figure_not_form,
        _dual_too_short,
        _mult_row_not_object,
        _mult_row_without_right,
        _mult_duplicate_not_pair,
        _integer_too_long,
        _json_nested_too_deep,
        _figure_nested_too_deep,
        _figure_degree_too_high,
        _figure_literal_product,
        _figure_not_label,
        _figure_missing_vertex,
        _figure_missing_vertex_sigma2,
        _restriction_missing_shape,
        _fixed_points_unknown_weight,
        _fixed_points_missing_row,
        _fixed_points_renamed_label,
        _chamber_fixed_points_malformed,
    ],
    ids=[
        "missing-directory",
        "malformed-json",
        "not-utf8",
        "table-not-object",
        "coefficient-not-integer",
        "unknown-partition",
        "degrees-not-object",
        "monk-coefficient-not-integer",
        "chern-row-not-object",
        "figure-not-form",
        "dual-coefficients-too-short",
        "mult-row-not-object",
        "mult-row-without-right",
        "mult-duplicate-not-pair",
        "integer-too-long",
        "json-nested-too-deep",
        "figure-nested-too-deep",
        "figure-degree-too-high",
        "figure-literal-product",
        "figure-not-label",
        "figure-missing-vertex",
        "figure-missing-vertex-sigma2",
        "restriction-missing-shape",
        "fixed-points-unknown-weight",
        "fixed-points-missing-row",
        "fixed-points-renamed-label",
        "chamber-fixed-points-malformed",
    ],
)
def test_missing_fixtures_exit_2(tmp_path, capsys, monkeypatch, setup):
    directory, argv, expected = setup(tmp_path)
    if Path(expected[0]).name == "fixed_points.json":
        # every stage caches the point labels, so an edited table needs a fresh process
        proc = subprocess.run(
            [sys.executable, "-m", "cayleygr.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "CAYLEY_FIXTURES": str(directory)},
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        monkeypatch.setenv("CAYLEY_FIXTURES", str(directory))
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert all(text in lines[0] for text in expected), lines[0]


def _swap_triples(text):
    """fixed_points.json with the triples of rows 3 and 5' interchanged."""
    three, five = '"triple": ["a", "-b", "-g"]', '"triple": ["0", "a", "-b"]'
    return text.replace(three, "@").replace(five, three).replace("@", five)


def test_swapped_fixed_point_labels_are_reported(tmp_path):
    # the chamber, not the label, fixes each codimension, so the solve
    # succeeds and the label-keyed paper data fail; every stage caches the
    # point labels, so this needs a fresh process
    fixtures, _ = _edited_fixtures(tmp_path, "fixed_points", _swap_triples)
    proc = subprocess.run(
        [sys.executable, "-m", "cayleygr.cli", "verify", "all"],
        capture_output=True,
        text=True,
        env={**os.environ, "CAYLEY_FIXTURES": str(fixtures)},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    for check_id in ("betti.codim-equals-label", "classes.sigma1-figure", "degrees.table"):
        assert f"[             FAIL] {check_id}" in proc.stdout, check_id


@pytest.mark.parametrize("argv", [["verify", "betti"], ["dump", "degrees"]])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "nonexistent" / "dir" / "x.json"
    code = main([*argv, "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert str(target) in lines[0] and "No such file or directory" in lines[0]


def test_sigma2_figure_counts_matches(tmp_path, capsys, monkeypatch):
    # a second wrong printed row besides 4'
    fixtures, _ = _edited_fixtures(tmp_path, "gkm_sigma2", lambda text: text.replace('"4": "b(b-g)"', '"4": "2b(b-g)"'))
    monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
    code, out = run_cli(capsys, "verify", "classes")
    assert code == 1
    line = next(l for l in out.splitlines() if "classes.sigma2-figure" in l)
    assert line.startswith("[             FAIL]")
    assert "computed=13 of 15 match" in line


def _statuses(capsys, topic):
    code, out = run_cli(capsys, "verify", topic, "--format", "json")
    return code, {r["id"]: r["status"] for r in json.loads(out)["results"]}


def test_chern_discrepancy_needs_the_ambient_evidence(capsys, monkeypatch):
    # a relabelled c5 row fails the ambient cross-check, so it is no correction of the print
    broken = dict(invariants.chern_classes())
    broken[5] = equivariant.SchubertVector({"3": 76, "5": 160})
    monkeypatch.setattr(invariants, "chern_classes", lambda: broken)
    code, status = _statuses(capsys, "chern")
    assert code == 1
    assert status["chern.c5"] == "fail" and status["chern.c6"] == "paper-discrepancy"


def test_dual_discrepancy_needs_the_chern_evidence(capsys, monkeypatch):
    coeffs, dprime, value = invariants.dual_degree()
    for q8, expected in ((-700, "fail"), (-738, "pass")):
        # -700 is neither the printed -738 nor -(c1 coefficient) x degree = -728
        changed = [*coeffs[:7], q8, coeffs[8]]
        monkeypatch.setattr(invariants, "dual_degree", lambda: (changed, dprime, value))
        _, status = _statuses(capsys, "dual")
        assert status["dual.q8-coefficient"] == expected, q8
        assert status["dual.derivative"] == "paper-discrepancy"


def test_dual_derivative_discrepancy_needs_the_printed_polynomial(tmp_path, capsys, monkeypatch):
    # 18 is not the absolute derivative 17 of the printed polynomial
    fixtures, _ = _edited_fixtures(tmp_path, "dual_polynomial", lambda text: text.replace('"derivative_at_one": 17', '"derivative_at_one": 18'))
    monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
    code, status = _statuses(capsys, "dual")
    assert code == 1
    assert status["dual.derivative"] == "fail" and status["dual.q8-coefficient"] == "paper-discrepancy"


def test_duplicate_row_discrepancy_needs_a_verbatim_twin(tmp_path, capsys, monkeypatch):
    # the duplicate 5*2 line no longer repeats the plain 5*2 line verbatim
    duplicate = '{"left": "5",  "right": "2",  "result": {"7": 1}, "duplicate_of": ["5\'", "2"]}'
    edited = '{"left": "5",  "right": "2",  "result": {"7": 4}, "duplicate_of": ["5\'", "2"]}'
    fixtures, _ = _edited_fixtures(tmp_path, "mult_table", lambda text: text.replace(duplicate, edited))
    monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
    code, status = _statuses(capsys, "mult")
    assert code == 1
    assert status["mult.duplicate-row.2*5'"] == "fail" and status["mult.unambiguous-rows"] == "pass"


# SHA-256 of the default reports (text, JSON and CSV) and dumps, of
# the largest hilbert and series runs, and of the JSON reports of the
# single topics index, chern, dual, ring and restriction, which run
# without building every stage of `verify all`; they are byte-identical
# across hash seeds, and a change that alters any of them must say why
OUTPUT_DIGESTS = {
    ("verify", "all"): "2f621462320ca757d1bb9832a99ceb5290bd7d411d8a49dcd23ba1f5fd4509f5",
    ("verify", "all", "--format", "json"): "be9bc43bdcaa48af94bbbd8610cbcf436d608a1835549229cc8f471447776959",
    ("verify", "all", "--format", "csv"): "b2e67a4c070beb4cd49abce955d7b4e14ae46015efd1cdf1198cac8683d0eec8",
    ("dump", "classes"): "6503055d0c6f9869557443bb0c85d4edd32a300c0d69bf7eab9e525245f77d0a",
    ("dump", "degrees"): "f36b4a25d96187b785de023a500b93d4c25826b604b86967f1f78f47c71771f4",
    ("dump", "fixed-points"): "a6a2563d3406a7356a6dfde995aa8c1350c1ba0971fe5a36f62d994ff15b2cbc",
    ("dump", "hilbert"): "1a0c143ff78668c8c3c2e941de86c0da09bcb3e9c0e2eaa937dc4df2060c884a",
    ("dump", "mult"): "c8eb3d6cbbc1e58e3ffd0a6b5b180c8e13536f27c2ee403c6e46659ed4bf368c",
    ("dump", "restriction"): "0ab46e2c1aed2507cc3672830d1d397d9746017f0e52ba6ad33dd674f42527f8",
    ("dump", "hilbert", "--kmax", "100"): "78a1e0ede5b0e59efc2a1bc2ecef4928e2e8fb12a633e439cdbbbcdfca3a1cc0",
    ("verify", "hilbert", "--kmax", "100", "--format", "json"): "149db095485c4b3b4698fb445531d3aa2b808367d148e0ad7333af047d49226e",
    ("verify", "series", "--kmax", "100", "--format", "json"): "45ae2cdfa97d8f9a65ed34908e2d15d9a805653d4895e3451495fd50e54e43b8",
    ("verify", "index", "--format", "json"): "adbb90b6c44480490fcd232122f13fc4a459a412c254d65cda4c40912653cd6b",
    ("verify", "chern", "--format", "json"): "94b32a0c71004d0d6dbb16f12f78f83db39cf296a3a5c3db9563acdb8bcc62ba",
    ("verify", "dual", "--format", "json"): "95965c42c71171bac2b393306e8a8225ecd6cfbf1dbdb27071fe09bc9a25c309",
    ("verify", "ring", "--format", "json"): "975c3a8ec8553202f15f9040c6c4f05469863369d6506fd136208efbb111a542",
    ("verify", "restriction", "--format", "json"): "4f291231df6577894ce3455983c55112eb3038d44d3bdb707d3ec4894dae0955",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS), ids=" ".join)
def test_output_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTPUT_DIGESTS[argv]


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    # the benchmark's tracer wraps engine functions by name; a rename that
    # misses it would only break traced runs
    tracer = _tracer()
    for table in (tracer.KERNELS, tracer.STAGES):
        for short, names in table.items():
            module = importlib.import_module(f"cayleygr.{short}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{short}.{name}"


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _modules_after_cli_import():
    """The names in sys.modules of a fresh interpreter after `import cayleygr.cli`."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cayleygr.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("topic", ["chern", "dual"])
def test_fresh_topic_builds_no_multiplication_table(topic):
    # the bundle classes take their coordinates by Poincare duality, and
    # dual_labels reads poincare_pairing, so these topics alone need no table
    script = (
        "import sys\n"
        "from cayleygr import cli, equivariant\n"
        "table, calls = equivariant.multiplication_table, []\n"
        "equivariant.multiplication_table = lambda: calls.append(1) or table()\n"
        f"code = cli.main(['verify', {topic!r}])\n"
        "print(code, len(calls), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "0"]


def test_cli_import_loads_every_traced_module():
    # the tracer looks the traced modules up in sys.modules right after
    # `from cayleygr import cli`, so a module the CLI imports lazily would
    # break every traced run
    tracer = _tracer()
    loaded = _modules_after_cli_import()
    traced = {f"cayleygr.{short}" for table in (tracer.KERNELS, tracer.STAGES) for short in table}
    assert traced <= loaded, sorted(traced - loaded)


def test_cli_import_skips_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, about 10 ms of
    # every CLI process's start-up; the engine's records are namedtuples
    assert "dataclasses" not in _modules_after_cli_import()


def _identifiers(node, skip=None):
    """Names, attributes and imported names under node, outside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _identifiers(child, skip)


def test_src_names_are_reached():
    # every public top-level function or class in src/ is reached by the
    # engine, the CLI or the benchmark; a helper that only tests call
    # lives beside its test
    unreached_by_design = {
        # the Weyl-character route to g2_irrep_dim, for the planned
        # holomorphic Lefschetz check of the series identity
        "weightmodel.g2_irrep_dim_character_oracle",
    }
    root = Path(__file__).resolve().parents[1]
    perfbench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py")))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (root / "src" / "cayleygr").glob("*.py")}
    used = {module: set(_identifiers(tree)) for module, tree in trees.items()}
    unreached = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            reached = (
                any(node.name in names for other, names in used.items() if other != module)
                or node.name in set(_identifiers(tree, skip=node))
                or re.search(rf"\b{node.name}\b", perfbench)
            )
            if not reached:
                unreached.add(f"{module}.{node.name}")
    assert unreached == unreached_by_design


def test_src_has_no_assert_statement():
    # python -O strips assert statements, so an exactness guard in src/ raises instead
    root = Path(__file__).resolve().parents[1]
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((root / "src" / "cayleygr").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
