import ast
import gc
import hashlib
import importlib
import importlib.util
import inspect
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

from cayleygr import ambient, cayley, cli, equivariant, invariants, octonions
from cayleygr.cli import main, run
from cayleygr.exact import HomogPoly, poly_mul
from cayleygr.cayley import DIMENSION
from cayleygr.fixtures import FORM_DEGREE_BOUND, fixtures_dir, parse_form
from cayleygr.weightmodel import CHAMBER


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


@pytest.mark.parametrize("argv", [["verify", "betti", "--chamber", "2,1"], ["verify", "all", "--chamber=1,2"]])
def test_chamber_is_not_an_option(tmp_path, capsys, argv):
    # one chamber, weightmodel.CHAMBER, serves the whole report
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # parsing reads no fixture, so a fresh process over an empty fixture directory fails the same way
    proc = subprocess.run(
        [sys.executable, "-m", "cayleygr.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "CAYLEY_FIXTURES": str(tmp_path)},
    )
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr
    assert not hasattr(cli.build_parser().parse_args(["verify", "betti"]), "chamber")
    assert list(inspect.signature(cli.render).parameters) == ["results", "fmt"]


def test_betti_profile_reads_every_weyl_chamber(capsys, monkeypatch):
    # a profile that differs in one transported chamber fails the check
    original = cayley.betti_profile
    seen = []

    def skewed(l):
        seen.append(l)
        profile = original(l)
        return [*profile[:3], profile[3] - 1, profile[4] + 1, *profile[5:]] if l == (2, 1) else profile

    monkeypatch.setattr(cayley, "betti_profile", skewed)
    code, out = run_cli(capsys, "verify", "betti", "--format", "json")
    assert code == 1
    by_id = {r["id"]: r for r in json.loads(out)["results"]}
    assert by_id["betti.profile"]["status"] == "fail"
    assert by_id["betti.profile"]["computed"] == [[1, 1, 2, 1, 4, 2, 2, 1, 1], [1, 1, 2, 2, 3, 2, 2, 1, 1]]
    assert by_id["betti.codim-equals-label"]["status"] == "pass"
    assert len(set(seen)) == 12 and seen[0] == CHAMBER


def test_gkm_edge_directions_can_fail():
    # with b no longer a root, the engine still builds the graph and the
    # report prints the verdict; a fresh process computes the edges anew
    script = (
        "from cayleygr import cayley, cli; from cayleygr.weightmodel import BETA; "
        "cayley.SHORT_AND_LONG_ROOTS -= {BETA}; raise SystemExit(cli.main(['verify', 'gkm']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "[             FAIL] gkm.edge-directions" in proc.stdout
    assert "[               ok] gkm.connected" in proc.stdout


def test_gkm_connected_can_fail(capsys, monkeypatch):
    # the report walks the edges it reads; cut off the vertex 8
    edges = tuple(e for e in cayley.gkm_edges() if "8" not in e.labels)
    monkeypatch.setattr(cayley, "gkm_edges", lambda: edges)
    code, out = run_cli(capsys, "verify", "gkm")
    assert code == 1
    assert "[             FAIL] gkm.connected  computed=False expected=True" in out


def test_readme_cli_examples_parse():
    # every example of the README's CLI block names only options that exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    examples = [line.partition("#")[0].split() for line in block.splitlines() if line.startswith("cayleygr ")]
    assert len(examples) >= 5
    for argv in examples:
        cli.build_parser().parse_args(argv[1:])


def test_readme_engine_names_exist():
    # every `module.name` the README names for an engine module resolves,
    # so a retired name cannot linger in the documentation
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in (root / "src" / "cayleygr").glob("*.py")}
    refs = {(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)[`(]", readme) if m in modules}
    assert len(refs) >= 5, refs
    missing = [f"{m}.{n}" for m, n in sorted(refs) if not hasattr(importlib.import_module(f"cayleygr.{m}"), n)]
    assert missing == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "series", "--kmax", "-1"],
        ["verify", "hilbert", "--kmax", "-1"],
        ["dump", "hilbert", "--kmax", "-1"],
        ["verify", "series", "--kmax", "101"],
        ["verify", "hilbert", "--kmax", "101"],
        ["dump", "hilbert", "--kmax", "101"],
    ],
    ids=[
        "series-kmax-neg", "hilbert-kmax-neg", "dump-kmax-neg",
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


def test_run_returns_the_exit_code_and_freezes_the_heap(capsys, monkeypatch):
    try:
        assert run(["verify", "octonion"]) == main(["verify", "octonion"]) == 0
        assert gc.get_freeze_count() > 0
        monkeypatch.setattr(cli, "main", lambda argv=None: 1)
        assert run(["verify", "octonion"]) == 1
    finally:
        gc.unfreeze()


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["verify", "octonion"]) == 0
    assert gc.get_freeze_count() == before


def test_module_entry_freezes_the_heap():
    # the __main__ block goes through run(): an atexit handler, which runs
    # after its sys.exit, finds the heap frozen
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv = ['cayleygr', 'verify', 'octonion']\n"
        "runpy.run_module('cayleygr.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert int(proc.stderr) > 0


def _betti_on_swapped_labels(tmp_path):
    fixtures, _ = _edited_fixtures(tmp_path, "fixed_points", _swap_triples)
    return ["verify", "betti"], {"CAYLEY_FIXTURES": str(fixtures)}, 1


@pytest.mark.parametrize(
    "setup",
    [
        lambda tmp_path: (["verify", "octonion", "--format", "json"], {}, 0),
        _betti_on_swapped_labels,
        lambda tmp_path: (["verify", "hilbert", "--kmax", "101"], {}, 2),
    ],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_module_entry_matches_main(tmp_path, setup):
    # `python -m cayleygr.cli` goes through run(); a fresh process calling
    # main() directly must print the same bytes and exit alike
    argv, env, code = setup(tmp_path)
    env = {**_src_env(), **env}
    by_run = subprocess.run([sys.executable, "-m", "cayleygr.cli", *argv], capture_output=True, env=env)
    script = f"import sys\nfrom cayleygr.cli import main\nsys.exit(main({argv!r}))\n"
    by_main = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert by_run.returncode == by_main.returncode == code, by_run.stderr
    assert by_run.stdout == by_main.stdout
    assert by_run.stderr == by_main.stderr


def _project_scripts():
    """{name: target} of the [project.scripts] table, read as plain text (tomllib needs Python 3.11)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return dict(re.fullmatch(r'\s*([\w-]+)\s*=\s*"([^"]+)"\s*', line).groups() for line in table.splitlines() if line.strip())


def test_project_scripts_resolve():
    scripts = _project_scripts()
    assert scripts["cayleygr"] == "cayleygr.cli:run"
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


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
# every keyed table has exactly its keys, every coordinate row is keyed by point labels, and no object repeats a key
_monk_unknown_label = _fixture_case(
    "bruhat_monk", "monk", lambda text: text.replace('"2": {"3": 1,', '"2": {"9": 1, "3": 1,'), ["monk['2'] key '9'", "not a point label"]
)
_chern_unknown_label = _fixture_case(
    "chern", "chern", lambda text: text.replace('"1": {"1": 4}', '"1": {"1": 4, "9": 1}'), ["classes['1'] key '9'", "not a point label"]
)
_chern_extra_row = _fixture_case(
    "chern", "chern", lambda text: text.replace('"8": {"8": 15}', '"8": {"8": 15}, "9": {"8": 1}'), ["classes key '9'", "not a codimension 1 to 8"]
)
_restriction_unknown_label = _restriction_case(
    lambda text: text.replace('"1": {"1": 1}', '"1": {"1": 1, "9": 1}'), ["table['1'] key '9'", "not a point label"]
)
_restriction_zero_key = _restriction_case(
    lambda text: text.replace('"1": {"1": 1},', '"0": {"0": 1}, "1": {"1": 1},'), ["table key '0'", "not a box partition of size 1 to 8"]
)
_mult_unknown_label = _fixture_case(
    "mult_table", "mult", lambda text: text.replace('"result": {"4": 1, "4\'": 2, "4\'\'": 2}', '"result": {"4": 1, "4\'": 2, "4\'\'": 2, "9": 0}', 1),
    ["rows[0]['result'] key '9'", "not a point label"],
)
_degrees_unknown_label = _fixture_case(
    "degrees", "degrees", lambda text: text.replace('"8": 1', '"8": 1, "9": 1'), ["degrees key '9'", "not a point label"]
)
_degrees_missing_label = _fixture_case("degrees", "degrees", lambda text: text.replace(', "8": 1', ""), ["degrees has no key '8'"])
_figure_duplicate_key = _fixture_case(
    "gkm_sigma2", "classes", lambda text: text.replace('"8": "4g(g-b)"', '"8": "4g(g-b)", "8": "4g(g-b)"'), ["duplicate key '8'"]
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
        _monk_unknown_label,
        _chern_unknown_label,
        _chern_extra_row,
        _restriction_unknown_label,
        _restriction_zero_key,
        _mult_unknown_label,
        _degrees_unknown_label,
        _degrees_missing_label,
        _figure_duplicate_key,
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
        "monk-unknown-label",
        "chern-unknown-label",
        "chern-extra-row",
        "restriction-unknown-label",
        "restriction-zero-key",
        "mult-unknown-label",
        "degrees-unknown-label",
        "degrees-missing-label",
        "figure-duplicate-key",
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
    # an empty path names no file: it is no way to ask for standard output
    for target in (str(tmp_path / "nonexistent" / "dir" / "x.json"), ""):
        code = main([*argv, "--out", target])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"cayleygr: error: cannot write {target!r}: No such file or directory"]


def _assert_one_error_line(proc, reason):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"cayleygr: error: cannot write standard output: {reason}"]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_full_stdout_exits_2():
    # argparse drops a failed write of its help, whether or not stdout is
    # buffered, so the --help outputs are checked both ways
    for argv in (["verify", "octonion"], ["--help"], ["verify", "--help"], ["dump", "--help"]):
        for unbuffered in ("", "1"):
            env = {**_src_env(), "PYTHONUNBUFFERED": unbuffered}
            with open("/dev/full", "wb") as full:
                proc = subprocess.run([sys.executable, "-m", "cayleygr.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env)
            _assert_one_error_line(proc, "No space left on device")


def test_closed_stdout_pipe_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cayleygr.cli", "dump", "classes"], stdout=write_end, stderr=subprocess.PIPE, text=True, env=_src_env())
    finally:
        os.close(write_end)
    _assert_one_error_line(proc, "Broken pipe")


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


_PRINTED_ROW_5 = '"triple": ["b", "g", "-a"],  "tangent": ["a", "b", "2a", "2b", "a-g", "b-g", "-g", "-g"]'
_COMPUTED_ROW_5 = '"triple": ["b", "g", "-a"],  "tangent": ["-a", "-a", "2b", "2g", "b", "b-a", "g", "g-a"]'
_CORRECTED = {
    # each printed misprint set to the computed value: a data change that must pass
    "fixed_points": (
        "tangents",
        lambda text: text.replace(_PRINTED_ROW_5, _COMPUTED_ROW_5),
        ["tangents.row-5"],
    ),
    "restriction": (
        "restriction",
        lambda text: text.replace('"2": {"2\'": 1},\n    "11": {"2": 1},', '"2": {"2": 1},\n    "11": {"2\'": 1},'),
        ["restriction.level-2-swap"],
    ),
    "dual_polynomial": (
        "dual",
        lambda text: text.replace("1438, -738, 182]", "1438, -728, 182]").replace('"derivative_at_one": 17', '"derivative_at_one": 63'),
        ["dual.q8-coefficient", "dual.derivative"],
    ),
    "gkm_sigma2": (
        "classes",
        lambda text: text.replace('"4\'": "g(4g-b)"', '"4\'": "g(g-b)"'),
        ["classes.sigma2-at-4'", "classes.sigma2-figure"],
    ),
    "chern": (
        "chern",
        lambda text: text.replace('"5": {"5": 76, "5\'": 160}', '"5": {"5": 160, "5\'": 76}').replace('"6": {"6": 133, "6\'": 151}', '"6": {"6": 151, "6\'": 193}'),
        ["chern.c5", "chern.c6"],
    ),
}


@pytest.mark.parametrize("name", sorted(_CORRECTED))
def test_corrected_misprints_pass(tmp_path, capsys, monkeypatch, name):
    # one rule for every documented misprint: a match passes, and no count pins the printed mismatches
    topic, edit, corrected = _CORRECTED[name]
    fixtures, _ = _edited_fixtures(tmp_path, name, edit)
    argv = ["verify", topic, "--format", "json"]
    if name == "fixed_points":
        # every stage caches the point labels, so an edited table needs a fresh process
        env = {**_src_env(), "CAYLEY_FIXTURES": str(fixtures)}
        proc = subprocess.run([sys.executable, "-m", "cayleygr.cli", *argv], capture_output=True, text=True, env=env)
        code, out = proc.returncode, proc.stdout
    else:
        monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
        code, out = run_cli(capsys, *argv)
    assert code == 0
    status = {r["id"]: r["status"] for r in json.loads(out)["results"]}
    assert all(status[i] == "pass" for i in corrected)
    assert set(status.values()) == {"pass"}


def test_tangent_row_discrepancy_needs_a_duplicate_of_row_0(tmp_path):
    # a printed row 5 that is wrong but no copy of row 0 is no documented misprint
    other = '"triple": ["b", "g", "-a"],  "tangent": ["-a", "-b", "-2a", "-2b", "g-a", "g-b", "g", "g"]'
    fixtures, _ = _edited_fixtures(tmp_path, "fixed_points", lambda text: text.replace(_PRINTED_ROW_5, other))
    env = {**_src_env(), "CAYLEY_FIXTURES": str(fixtures)}
    proc = subprocess.run([sys.executable, "-m", "cayleygr.cli", "verify", "tangents", "--format", "json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    status = {r["id"]: r["status"] for r in json.loads(proc.stdout)["results"]}
    assert status == {"tangents.matching-rows": "fail", "tangents.row-5": "fail", "tangents.row-5-symmetry": "pass"}


def test_a_misprinted_row_other_than_row_5_fails_the_row_count(tmp_path):
    # the report alone compares the printed rows: one more wrong row is a FAIL, row 5 stays documented
    row_8 = '"tangent": ["-a", "-b", "-2a", "-2b", "g-a", "g-b", "g", "g"]'
    fixtures, _ = _edited_fixtures(tmp_path, "fixed_points", lambda text: text.replace(row_8, row_8.replace('"g"]', '"2g"]')))
    env = {**_src_env(), "CAYLEY_FIXTURES": str(fixtures)}
    proc = subprocess.run([sys.executable, "-m", "cayleygr.cli", "verify", "tangents", "--format", "json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    by_id = {r["id"]: r for r in json.loads(proc.stdout)["results"]}
    rows = by_id["tangents.matching-rows"]
    assert (rows["status"], rows["computed"], rows["expected"]) == ("fail", 13, 14)
    assert by_id["tangents.row-5"]["status"] == "paper-discrepancy"


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"4\'": "g(4g-b)"', '"4\'": "2g(g-b)"'),
        lambda text: text.replace('"4\'": "g(4g-b)"', '"4\'": "a^3"').replace('"6": "g(4g-b)"', '"6": "a^3"'),
    ],
    ids=["no-copy", "copy-of-another-degree"],
)
def test_sigma2_discrepancy_needs_a_copy_of_vertex_6(tmp_path, capsys, monkeypatch, edit):
    # a wrong printed 4' that is no copy of the printed vertex-6 entry, or a copy of
    # another degree than the class's, is no documented misprint
    fixtures, _ = _edited_fixtures(tmp_path, "gkm_sigma2", edit)
    monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
    code, status = _statuses(capsys, "classes")
    assert code == 1
    assert status["classes.sigma2-at-4'"] == "fail" and status["classes.sigma2-figure"] == "fail"


def test_sigma2_discrepancy_needs_the_broken_congruences(capsys, monkeypatch):
    # with every vertex map passing the edge congruences, the copy of vertex 6 alone is no evidence
    equivariant.solve_all_classes()  # solved first: the solve's own checks stay as they are
    monkeypatch.setattr(equivariant, "check_gkm_divisibility", lambda values: [])
    code, status = _statuses(capsys, "classes")
    assert code == 1
    assert status["classes.sigma2-at-4'"] == "fail" and status["classes.sigma2-figure"] == "fail"


def test_gkm_divisibility_verdict_reads_the_predicate(capsys, monkeypatch):
    # the solve is cached before the patch, so only the report sees the failing edge
    equivariant.solve_all_classes()
    monkeypatch.setattr(equivariant, "check_gkm_divisibility", lambda values: ["1-4 (weight b-g)"])
    code = main(["verify", "classes"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    line = next(line for line in out.splitlines() if "classes.gkm-divisibility" in line)
    assert line.startswith("[             FAIL] classes.gkm-divisibility") and "1-4 (weight b-g)" in line


def test_restriction_swap_discrepancy_needs_the_interchanged_pair(tmp_path, capsys, monkeypatch):
    # t2 printed right and t11 printed as s2: one wrong image, not the computed pair interchanged
    fixtures, _ = _edited_fixtures(tmp_path, "restriction", lambda text: text.replace('"2": {"2\'": 1},', '"2": {"2": 1},'))
    monkeypatch.setenv("CAYLEY_FIXTURES", str(fixtures))
    code, status = _statuses(capsys, "restriction")
    assert code == 1
    assert status["restriction.level-2-swap"] == "fail" and status["restriction.table"] == "fail"


def test_restriction_swap_discrepancy_needs_the_square(capsys, monkeypatch):
    # with rho(t11)^2 = rho(t11^2) failing for every image, the interchange alone is no evidence
    ambient.restriction_table()  # built first: the table's own products stay right
    monkeypatch.setattr(equivariant, "schubert_product", lambda u, v: equivariant.SchubertVector({}))
    code, status = _statuses(capsys, "restriction")
    assert code == 1
    assert status["restriction.level-2-swap"] == "fail" and status["restriction.table"] == "fail"


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


def _perfbench_engine_reads():
    """{(module, attribute)} read in perfbench/*.py on a name bound by `from cayleygr import <module> [as <alias>]`."""
    reads = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "cayleygr"
            for alias in node.names
        }
        reads |= {
            (bound[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
        }
    return reads


def test_perfbench_engine_names_resolve():
    # the benchmark's workers call engine names the tracer's tables do not
    # list; a removal that misses one would fail every benchmark operation
    reads = _perfbench_engine_reads()
    assert {("equivariant", "integrate_vector"), ("equivariant", "labels_by_codim"), ("cli", "TOPICS")} <= reads
    missing = [f"{m}.{a}" for m, a in sorted(reads) if not hasattr(importlib.import_module(f"cayleygr.{m}"), a)]
    assert missing == []


def test_no_literal_verdicts():
    # a check whose verdict is a constant can never print FAIL, and one
    # whose computed value is a constant prints the same text when it fails
    tree = ast.parse(Path(inspect.getfile(cli)).read_text(encoding="utf-8"))
    literal = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "check":
            for i, name in ((1, "ok"), (2, "computed")):
                arg = node.args[i] if len(node.args) > i else next((kw.value for kw in node.keywords if kw.arg == name), None)
                if isinstance(arg, ast.Constant):
                    literal.append((getattr(node.args[0], "value", ast.unparse(node.args[0])), name))
    assert literal == []


def test_a_failing_product_check_prints_the_product(capsys, monkeypatch):
    # with e1 e2 negated, octonion.e1e2 fails and reports the product it computed
    E, multiply = octonions.E, octonions.multiply
    monkeypatch.setattr(octonions, "multiply", lambda x, y: -multiply(x, y) if (x, y) == (E[1], E[2]) else multiply(x, y))
    code, out = run_cli(capsys, "verify", "octonion", "--format", "json")
    assert code == 1
    failed = {r["id"]: r for r in json.loads(out)["results"] if r["status"] == "fail"}
    assert "octonion.e1e2" in failed
    assert failed["octonion.e1e2"]["computed"] == "(-1)e3"
    assert all(r["computed"] != r["expected"] for r in failed.values())


def test_index_profile_verdict_reads_the_profile(capsys, monkeypatch):
    # the restriction table is cached before the patch; a codimension of cokernel order 0 fails the profile and the total
    profile = ambient.image_index_profile()
    monkeypatch.setattr(ambient, "image_index_profile", lambda: {**profile, 3: 0})
    code = main(["verify", "index"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    failed = {line.split("] ")[1].split()[0] for line in out.splitlines() if line.startswith("[") and "FAIL]" in line}
    assert failed == {"index.profile", "index.total"}


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


# A wrong but self-consistent value put into the engine upstream of a report
# check whose paper number the engine does not re-assert: (topic, set-up).
_WRONG_VALUES = {
    "koszul-and-closed-form-shifted": (
        "hilbert",
        "from math import prod\n"
        "from cayleygr import invariants\n"
        "value, closed = invariants.hilbert_value, invariants.closed_form_value\n"
        "shift = lambda k: prod(k + j for j in range(1, 9)) // 40320  # binom(k + 8, 8)\n"
        "invariants.hilbert_value = lambda k: value(k) + shift(k)\n"
        "invariants.closed_form_value = lambda k: closed(k) + shift(k)\n",
    ),
    "c1-perturbed": (
        "chern",
        "from cayleygr import equivariant, invariants\n"
        "top = invariants.top_by_duality\n"
        "h = equivariant.basis_vector(equivariant.hyperplane_label())\n"
        "invariants.top_by_duality = lambda v: top(v) + h if next(iter(v.values())).degree == 1 else top(v)\n",
    ),
    "dim-V(2w2)-plus-one": (
        "series",
        "from cayleygr import invariants\n"
        "dim = invariants.g2_irrep_dim\n"
        "invariants.g2_irrep_dim = lambda a, b: dim(a, b) + ((a, b) == (0, 2))\n",
    ),
    "g2-vector-dropped": (
        "octonion",
        "from cayleygr import octonions\n"
        "null = octonions.nullspace\n"
        "octonions.nullspace = lambda rows, n: null(rows, n)[: -1 if n == 49 else None]\n",
    ),
    "structure-constant-negated": (
        "mult",
        "from cayleygr import equivariant\n"
        "top, calls = equivariant.top_expansion, []\n"
        "def negated_first(values):  # the first product the table expands\n"
        "    calls.append(1)\n"
        "    return top(values).scale(-1 if len(calls) == 1 else 1)\n"
        "equivariant.top_expansion = negated_first\n",
    ),
    "monomial-rank-minus-one": (
        "ring",
        "from cayleygr import exact\n"
        "rank = exact.matrix_rank\n"
        "exact.matrix_rank = lambda rows: rank(rows) - 1\n",
    ),
    "sigma1-squared-perturbed": (
        "ring",
        "from cayleygr import equivariant\n"
        "# 2 s2 + s2' in place of s2 + s2': neither codimension-2 class satisfies R1 or R2\n"
        "equivariant.multiplication_table()[('1', '1')] = equivariant.SchubertVector({'2': 2, \"2'\": 1})\n",
    ),
}


@pytest.mark.parametrize(
    "check_id, case",
    [
        ("hilbert.leading-degree", "koszul-and-closed-form-shifted"),
        ("hilbert.P1", "koszul-and-closed-form-shifted"),
        ("hilbert.quadrics", "koszul-and-closed-form-shifted"),
        ("chern.c1", "c1-perturbed"),
        ("series.identity", "dim-V(2w2)-plus-one"),
        ("octonion.g2-dimension", "g2-vector-dropped"),
        ("mult.non-negative", "structure-constant-negated"),
        ("ring.monomial-ranks", "monomial-rank-minus-one"),
        ("ring.generator", "sigma1-squared-perturbed"),
        ("ring.relation-degree-5", "sigma1-squared-perturbed"),
        ("ring.relation-degree-6", "sigma1-squared-perturbed"),
    ],
)
def test_a_wrong_paper_number_is_a_fail_line(check_id, case):
    # the engine computes the value without comparing it with the paper, so
    # the report prints its FAIL line and exits 1 instead of a traceback;
    # a fresh process starts with every stage's cache empty
    topic, setup = _WRONG_VALUES[case]
    script = f"import sys\nfrom cayleygr import cli\n{setup}sys.exit(cli.main(['verify', {topic!r}]))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert any(line.startswith(f"[{'FAIL':>17}] {check_id}  computed=") for line in proc.stdout.splitlines()), proc.stdout


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


def test_cli_import_skips_csv():
    # only CSV output imports csv, about 1 ms that every other process
    # would pay at start-up
    assert "csv" not in _modules_after_cli_import()


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


def _top_level_names(tree):
    """(name, node) of each top-level function, class and assigned constant of a module, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (name.id.startswith("__") and name.id.endswith("__")):
                        yield name.id, node


def test_top_level_names_cover_constants():
    tree = ast.parse("__version__ = '1'\nA, _B = 1, 2\nC: int = 3\ndef f(): pass\nclass K: pass\nprint(A)\n")
    assert [name for name, _ in _top_level_names(tree)] == ["A", "_B", "C", "f", "K"]


def test_src_names_are_reached():
    # every top-level function, class or constant in src/, private ones
    # included, is reached by the engine, the CLI or the benchmark; a helper
    # that only tests read lives beside its test
    root = Path(__file__).resolve().parents[1]
    perfbench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py")))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (root / "src" / "cayleygr").glob("*.py")}
    used = {module: set(_identifiers(tree)) for module, tree in trees.items()}
    unreached = set()
    for module, tree in trees.items():
        for name, node in _top_level_names(tree):
            reached = (
                any(name in names for other, names in used.items() if other != module)
                or name in set(_identifiers(tree, skip=node))
                or re.search(rf"\b{name}\b", perfbench)
            )
            if not reached:
                unreached.add(f"{module}.{name}")
    assert unreached == set()


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


def test_a_failing_hypothesis_test_shows_its_report(tmp_path):
    # with every warning an error, a deprecation that the hypothesis plugin
    # raises in its report hook would end the session in INTERNALERROR and
    # hide the falsifying example; run such a test under this repository's ini options
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "def test_passes():\n    pass\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 10\n",
        encoding="utf-8",
    )
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_falsified.py"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out
