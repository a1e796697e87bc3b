import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from minuscule import Poset, UnsupportedPosetError, poset_from_shape, ShapeDiagram, verify_csp
from minuscule.cli import emit, main

import cli_transcripts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_emit_formats():
    header = ["a", "b"]
    rows = [[1, 2], [3, 4]]
    assert emit((header, rows), "csv") == "a,b\n1,2\n3,4\n"
    assert emit((header, []), "csv") == "a,b\n"  # empty table keeps its header
    assert json.loads(emit((header, rows), "json")) == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
    text = emit((header, rows), "text")
    assert text.endswith("\n") and "a" in text.splitlines()[0]
    assert emit((header, rows), "csv") == emit((header, rows), "csv")  # stable


def test_verify_csp_rejects_custom_shapes():
    hook = poset_from_shape(ShapeDiagram([(0, 2), (0, 1)]))
    with pytest.raises(UnsupportedPosetError):
        verify_csp(hook, 1)


def test_rowmotion_orbits_formats(capsys):
    code, out, _ = run(capsys, "rowmotion-orbits", "--poset", "rectangle-2x2", "--k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[:3] == ["orbit_size,multiplicity", "2,1", "4,1"]
    code, out, _ = run(capsys, "rowmotion-orbits", "--poset", "rectangle-2x2", "--k", "1", "--format", "json")
    assert code == 0
    payload = [json.loads(line) for line in out.strip().splitlines()]
    assert payload[0] == [{"multiplicity": 1, "orbit_size": 2}, {"multiplicity": 1, "orbit_size": 4}]


def test_gapless_table_output_is_thread_independent(capsys):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(
            capsys, "gapless-table", "--poset", "cayley-moufang", "--fresh",
            "--threads", threads, "--format", "csv",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1] == "11,1,1"


def test_gapless_table_uses_packaged_cache(capsys):
    # Without --fresh the shipped table is used, so this is instant.
    code, out, _ = run(capsys, "gapless-table", "--poset", "freudenthal", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 26  # header + 25 rows


def test_qpoly_output(capsys):
    code, out, _ = run(capsys, "qpoly", "--poset", "propeller-3", "--k", "1")
    assert code == 0
    coeffs = json.loads(out)
    assert coeffs == [1, 1, 1, 2, 1, 1, 1]
    assert sum(coeffs) == 8


def test_period_command(capsys):
    code, out, _ = run(capsys, "period", "--poset", "freudenthal", "--m", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"m": 24, "max_orbit": 72, "period": 144}


def test_verify_csp_json(capsys):
    code, out, _ = run(capsys, "verify-csp", "--poset", "propeller-4", "--k", "2", "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["holds"] is True
    assert verdict["order"] == verdict["m"] == 9


def test_verify_csp_text(capsys):
    # One row per power d of the order, then the verdict line; Freudenthal fails at height 5.
    code, out, _ = run(capsys, "verify-csp", "--poset", "freudenthal", "--k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d", "fixed", "value", "match"]
    assert len(lines) == 1 + 66 + 1
    assert lines[1].split() == ["1", "0", "non-integer", "False"]
    assert lines[-1] == "verdict: fails (order 66, m 22)"


def test_frame_check_exit_codes(capsys):
    code, out, _ = run(capsys, "frame-check")
    assert code == 0 and json.loads(out)["match"] is True
    code, out, _ = run(capsys, "frame-check", "--poset", "cayley-moufang")
    assert code == 1 and json.loads(out)["match"] is False


def test_poset_file_input(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"shape": {"rows": [[0, 2], [0, 2]]}}))
    code, out, _ = run(capsys, "rowmotion-orbits", "--poset", str(path), "--k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:3] == ["2,1", "4,1"]


def test_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "rowmotion-orbits", "--poset", "dodecahedron", "--k", "1")
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "period", "--poset", "cayley-moufang", "--m", "5")
    assert code == 3
    # The table build takes shapes of at most 255 elements.
    code, out, err = run(capsys, "gapless-table", "--poset", "rectangle-1x256", "--fresh")
    assert code == 3 and out == "" and "at most 255 elements" in err


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "rowmotion-orbits", "--poset", "cayley-moufang", "--k", "2", "--state-cap", "10")
    assert code == 2 and "state cap" in err


@pytest.mark.parametrize("value, exit_code", [("10", 2), ("abc", 3), ("0", 3)])
def test_state_cap_environment(capsys, monkeypatch, value, exit_code):
    # The environment cap bounds a traversal as --state-cap does; a value that
    # is no positive integer is bad input naming the variable.
    monkeypatch.setenv("MINUSCULE_STATE_CAP", value)
    code, out, err = run(capsys, "rowmotion-orbits", "--poset", "cayley-moufang", "--k", "2")
    assert code == exit_code and out == ""
    assert ("state cap" if exit_code == 2 else "MINUSCULE_STATE_CAP") in err


def test_internal_error_exit_code(capsys, monkeypatch):
    # An engine fault is neither a mismatch (1) nor bad input (3), and prints nothing on stdout.
    from minuscule import cli

    def broken(args):
        raise RuntimeError("rowmotion orbits disagree with the tableau side")

    monkeypatch.setattr(cli, "_cmd_qpoly", broken)
    code, out, err = run(capsys, "qpoly", "--poset", "propeller-3", "--k", "1")
    assert code == 4 and out == ""
    assert err.startswith("internal error: rowmotion orbits disagree")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_bad_input(capsys, threads):
    shape = ("--poset", "propeller-3", "--threads", threads)
    for command in (("gapless-table",), ("gapless-table", "--fresh"), ("verify-csp", "--k", "1"), ("frame-check",)):
        code, out, err = run(capsys, *command, *shape)
        assert code == 3 and out == "" and "worker count must be at least 1" in err


def test_packaged_table_pin_mismatch_exits_4(capsys, monkeypatch):
    # A shipped table that does not match its sha256 pin is an engine fault, not bad input.
    from minuscule import freudenthal, orbits

    monkeypatch.setitem(orbits._PACKAGED_SHA256, orbits._table_name(freudenthal()), "0" * 64)
    monkeypatch.setattr(orbits, "_TABLES", {})
    with pytest.raises(RuntimeError, match="sha256 pin"):
        orbits.packaged_table(freudenthal())
    code, out, err = run(capsys, "gapless-table", "--poset", "freudenthal")
    assert code == 4 and out == "" and "sha256 pin" in err


def test_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    code, out, _ = run(capsys, "qpoly", "--poset", "propeller-3", "--k", "1", "--manifest", str(path))
    assert code == 0
    manifest = json.loads(path.read_text())
    assert manifest["subcommand"] == "qpoly"
    assert manifest["parameters"]["poset"] == "propeller-3"
    assert manifest["output_sha256"] == hashlib.sha256(out.encode()).hexdigest()
    assert manifest["exit_code"] == 0


def test_cli_transcripts_replay(capsys):
    # Each recorded command exits and prints exactly as recorded
    # (tests/cli_transcripts.py records them).
    for want in cli_transcripts.load()["commands"]:
        code, out, err = run(capsys, *want["argv"])
        got = {"argv": want["argv"], "exit": code, "stdout": out, "stderr": err}
        assert got == want, " ".join(want["argv"])


def test_reproduce_everything(capsys):
    code, out, _ = run(capsys, *cli_transcripts.REPRODUCE)
    want = cli_transcripts.load()["reproduce"]
    assert (code, out) == (want["exit"], want["stdout"])
    lines = out.strip().splitlines()
    assert code == 0, out
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("OK")
    # every headline item is present
    for needle in (
        "gapless-table cayley-moufang",
        "gapless-table freudenthal",
        "gapless-table propeller-6",
        "verify-csp freudenthal k=5 (fails)",
        "period freudenthal m=24",
        "frame-check freudenthal",
        "tableau operator fixtures",
        "orbit multisets agree",
        "generating function point counts",
    ):
        assert any(needle in line for line in lines), needle


def test_reproduce_reports_golden_mismatches(tmp_path, capsys, monkeypatch):
    # A doctored golden directory gives one FAIL line per changed table and exit 1;
    # each headline table is built once.
    from minuscule import cli

    golden = tmp_path / "golden"
    shutil.copytree(resources.files("minuscule").joinpath("data/golden"), golden)
    cm = json.loads((golden / "table_cayley_moufang.json").read_text())
    cm["total"] += 1
    (golden / "table_cayley_moufang.json").write_text(json.dumps(cm))
    p3 = json.loads((golden / "table_propeller_3.json").read_text())
    p3["rows"].pop()
    (golden / "table_propeller_3.json").write_text(json.dumps(p3))

    builds = []
    real = cli.build_gapless_table

    def spy(poset, **kwargs):
        builds.append(poset.family)
        return real(poset, **kwargs)

    monkeypatch.setattr(cli, "build_gapless_table", spy)
    code, out, _ = run(capsys, "reproduce", "--threads", "2", "--golden-dir", str(golden))
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL  gapless-table cayley-moufang  (got total 549)",
        "FAIL  gapless-table propeller-3  (got [[5, 1, 1], [6, 2, 1]])",
        "MISMATCH: 2 failure(s)",
    ]
    assert len(builds) == len(set(builds)) == 6


# propeller-3's gapless tableaux: one orbit of period 1 at ceiling 5, one of period 2 at ceiling 6.
P3_REP5, P3_REP6 = [1, 2, 3, 3, 4, 5], [1, 2, 3, 4, 5, 6]
# The shape and the commands of every case but the last.
P3 = ("propeller-3", (("gapless-table",), ("verify-csp", "--k", "1"), ("period", "--m", "8"), ("frame-check",)))


@pytest.mark.parametrize(
    "spec, commands, content",
    [
        (*P3, lambda text: text[:200]),
        (*P3, lambda text: "[1, 2, 3]\n"),
        (*P3, lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "rows"})),
        (*P3, lambda text: json.dumps(json.loads(text) | {"schema": "minuscule.gapless-table/0"})),
        (*P3, lambda text: json.dumps(json.loads(text) | {"total": json.loads(text)["total"] + 1})),
        (*P3, lambda text: first_row(text, period=1.0, rep=[float(v) for v in json.loads(text)["rows"][0]["rep"]])),
        (*P3, lambda text: first_row(text, period=True, orbits=True)),
        (*P3, lambda text: json.dumps(json.loads(text) | {"rows": [], "total": 0})),
        (*P3, lambda text: first_row(text, m_t=json.loads(text)["rows"][0]["m_t"] + 1)),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 0, 5, P3_REP6), (6, 2, 1, P3_REP6))),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 1, 4, P3_REP6), (6, 2, -1, P3_REP6))),
        (*P3, lambda text: with_rows(text, (5, 1, 0, P3_REP5), (5, 1, 1, P3_REP5), (6, 2, 1, P3_REP6))),
        (*P3, lambda text: with_rows(text, (6, 2, 1, P3_REP6), (5, 1, 1, P3_REP5))),
        (*P3, lambda text: json.dumps(json.loads(text) | {"stable": [99]})),
        (*P3, lambda text: json.dumps(json.loads(text) | {"stable": [3, 1, 1]})),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 2, 1, P3_REP6[::-1]))),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 2, 1, [1]))),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 2, 1, P3_REP5))),
        (*P3, lambda text: with_rows(text, (5, 1, 1, P3_REP5), (6, 1, 2, P3_REP6))),
        ("rectangle-3x3", (("verify-csp", "--k", "3"),), lambda text: with_orbits(text, {(8, 2): 6, (8, 8): 9})),
    ],
    ids=[
        "truncated", "not-an-object", "no-rows", "wrong-schema", "wrong-total", "float-row", "bool-row",
        "empty-rows", "row-moved", "zero-period", "negative-orbits", "zero-orbits", "rows-descending",
        "stable-outside", "stable-unsorted", "rep-decreasing", "rep-short", "rep-not-gapless",
        "rep-wrong-period", "orbit-split",
    ],
)
def test_bad_cache_file_is_bad_input(tmp_path, capsys, spec, commands, content):
    # An unreadable, ill-formed or wrong cached table exits 3 naming the file,
    # with nothing on stdout, for every command that reads it.  The first
    # cases are a file cut short, no object, no rows, another schema and
    # orbit sizes that miss the total.  From "float-row" on, the orbit sizes
    # sum to the total; "empty-rows" and "row-moved" are well formed but
    # miscount the shape's tableaux at some ceiling, and every case after them
    # counts them right: a row that is not positive, rows out of order, a
    # stable set that is not strictly ascending inside the shape, or a rep
    # that is not a gapless tableau of its ceiling whose promotion orbit has
    # its row's period.  "orbit-split" moves tableaux
    # between the periods of one ceiling, which the read checks cannot see:
    # verify-csp's rowmotion recount refuses it.
    cache = ("--poset", spec, "--cache-dir", str(tmp_path))
    assert run(capsys, "gapless-table", *cache)[0] == 0
    (path,) = tmp_path.iterdir()
    path.write_text(content(path.read_text()))
    for command in commands:
        code, out, err = run(capsys, *command, *cache)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and str(path) in err


def test_a_cached_table_for_the_empty_shape_is_refused(tmp_path, capsys):
    # A build refuses the empty shape, and so does a read: a well-formed table
    # file for it is bad input naming the file, for every command that reads it.
    from minuscule.orbits import _TABLE_SCHEMA

    empty = Poset(0, [])
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"n": 0, "covers": []}))
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / f"gapless-{empty.digest()}.json"
    table = {"schema": _TABLE_SCHEMA, "family": empty.family, "poset_digest": empty.digest()}
    path.write_text(json.dumps(table | {"total": 0, "stable": [], "rows": []}))
    for command in (("period", "--m", "0"), ("gapless-table",), ("frame-check",)):
        for cache in ((), ("--cache-dir", str(cache_dir))):
            code, out, err = run(capsys, *command, "--poset", str(spec), *cache)
            assert code == 3 and out == ""
            assert "the empty shape has no orbit table" in err and (str(path) in err) == bool(cache)


def first_row(text: str, **fields) -> str:
    """A cached table's text with fields of its first row replaced."""
    data = json.loads(text)
    data["rows"][0].update(fields)
    return json.dumps(data)


def with_orbits(text: str, counts: dict) -> str:
    """A cached table's text with the orbit counts of its (m_t, period) rows in counts replaced."""
    data = json.loads(text)
    for row in data["rows"]:
        row["orbits"] = counts.get((row["m_t"], row["period"]), row["orbits"])
    return json.dumps(data)


def with_rows(text: str, *rows) -> str:
    """A cached table's text with its rows replaced by (m_t, period, orbits, rep) tuples."""
    data = json.loads(text)
    data["rows"] = [dict(zip(("m_t", "period", "orbits", "rep"), row)) for row in rows]
    return json.dumps(data)


@pytest.mark.parametrize(
    "name, content",
    [
        ("poset.json", "not json"),
        ("poset.json", "5"),
        ("poset.json", '{"shape": {"rows": [[0, "x"]]}}'),
        ("poset.json", '{"n": 3, "covers": [[0, 1, 2]]}'),
        ("poset.json", '{"n": 2.9, "covers": [[0, 1.7]]}'),
        ("poset.json", '{"shape": {"rows": [[0.4, 2.9]]}}'),
        ("poset.json", '{"n": true, "covers": []}'),
        ("poset.json", "[" * 100_000 + "]" * 100_000),
        ("poset.json", '{"shape": {"rows": [[0, 2], [2, 2]]}}'),
        ("table_propeller_3.json", '{"rows": '),
    ],
    ids=[
        "poset-not-json", "poset-number", "poset-bad-row", "poset-bad-cover", "poset-float-cover",
        "poset-float-row", "poset-bool-count", "poset-too-deep", "poset-disconnected", "golden-not-json",
    ],
)
def test_malformed_input_file_is_bad_input(tmp_path, capsys, name, content):
    # Every JSON input goes through one reader: a malformed file exits 3 naming it, with nothing on stdout.
    if name == "poset.json":
        path = tmp_path / name
        argv = ("rowmotion-orbits", "--k", "1", "--poset", str(path))
    else:
        golden = tmp_path / "golden"
        shutil.copytree(resources.files("minuscule").joinpath("data/golden"), golden)
        path = golden / name
        argv = ("reproduce", "--golden-dir", str(golden))
    path.write_text(content)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("target", ["cache-dir-is-a-file", "manifest-dir-missing", "manifest-is-a-dir"])
def test_unusable_output_path_is_bad_input(tmp_path, capsys, monkeypatch, target):
    # An output path that cannot be written exits 3 naming it, with nothing on
    # stdout; a cache directory is rejected before any table is built.
    from minuscule import orbits

    def refuse(*args, **kwargs):
        raise AssertionError("built a table for an unusable cache directory")

    monkeypatch.setattr(orbits, "build_gapless_table", refuse)
    if target == "cache-dir-is-a-file":
        path = tmp_path / "cache"
        path.write_text("")
        argv = ("gapless-table", "--poset", "propeller-3", "--cache-dir", str(path))
    else:
        path = tmp_path / "missing" / "m.json" if target == "manifest-dir-missing" else tmp_path
        argv = ("qpoly", "--poset", "propeller-3", "--k", "1", "--manifest", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_random_poset_files_never_exit_4(tmp_path, capsys):
    # Seeded random orders as cover-list files through every subcommand that reads
    # a poset: each run exits 0-3; 4 would be an internal error.
    from random import Random

    from test_poset import _random_covers

    rng = Random(20261023)
    codes = []
    for i in range(20):
        n = rng.randint(1, 6)
        path = tmp_path / f"poset-{i}.json"
        path.write_text(json.dumps({"n": n, "covers": _random_covers(rng, n)}))
        spec = str(path)
        for argv in (
            ("rowmotion-orbits", "--poset", spec, "--k", str(rng.randint(0, 3))),
            ("gapless-table", "--poset", spec, "--fresh"),
            ("period", "--poset", spec, "--m", str(rng.randint(1, n + 3))),
            ("frame-check", "--poset", spec),
            ("verify-csp", "--poset", spec, "--k", "1"),
            ("qpoly", "--poset", spec, "--k", "1"),
        ):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, path.read_text(), err)
            codes.append(code)
    assert 4 not in codes and {0, 1, 3} <= set(codes)


def test_deep_chain_rowmotion(capsys):
    # A 1,200-element chain: the ideal traversal must not recurse per element.
    code, out, err = run(capsys, "rowmotion-orbits", "--poset", "rectangle-1x1", "--k", "1200")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split() == ["1201", "1"]
    assert out.splitlines()[-1] == '{"total_states": 1201}'


@pytest.mark.parametrize(
    "argv",
    [
        ("period", "--poset", "cayley-moufang", "--m", "x"),
        ("rowmotion-orbits", "--poset", "propeller-3"),
        ("qpoly", "--poset", "propeller-3", "--k", "1", "--threads", "2"),
        ("verify-csp", "--poset", "rectangle-3x4", "--k", "0", "--state-cap", "5"),
    ],
)
def test_usage_errors_are_bad_input(capsys, argv):
    # Malformed, missing and unoffered options exit 3, like any other bad input.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 3 and "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_clean(demo):
    # Each demo in a fresh interpreter against this checkout's sources.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout


def test_importing_the_package_loads_no_process_pool():
    # The pool modules load only when a build starts a pool.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import minuscule, minuscule.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout == "[]\n"


def test_the_package_imports_only_the_standard_library():
    # Every absolute import in the package, lazy ones inside functions included.
    imported = set()
    for path in (ROOT / "src" / "minuscule").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and sorted(imported - sys.stdlib_module_names) == []


# Every process-wide cache in the package, by module.  A new one joins this registry
# and the call list below, which must reach it.
PROCESS_CACHES = {
    "ideals": {"_lattice"},
    "orbits": {"_content_periods"},
    "qpoly": {"_cyclotomic"},
    "tableaux": {"_sweep"},
}


def test_process_wide_caches_are_registered_and_history_free():
    # Each @cache or @lru_cache in the package is named in PROCESS_CACHES; and one fixed
    # call list gives the same results forward and in reverse, each run on cleared
    # caches, so no result depends on what the process asked before.
    import minuscule

    found = {}
    for path in (ROOT / "src" / "minuscule").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("cache", "lru_cache"):
                        found.setdefault(path.stem, set()).add(node.name)
    assert found == PROCESS_CACHES
    caches = [getattr(sys.modules[f"minuscule.{module}"], name) for module, names in found.items() for name in names]

    shapes = minuscule.propeller(3), minuscule.rectangle(2, 2), minuscule.cayley_moufang()
    calls = [
        lambda: minuscule.rowmotion_orbits(shapes[0], 4),
        lambda: minuscule.rowmotion_orbits(shapes[0], 1),
        lambda: minuscule.rowmotion_orbits(shapes[1], 30),
        lambda: minuscule.rowmotion_orbits(shapes[1], 3),
        lambda: minuscule.rowmotion_orbits(shapes[2], 2),
        lambda: minuscule.promotion_census(shapes[2], 12),
        lambda: minuscule.promotion_order(shapes[0], 9),
        lambda: minuscule.verify_csp(shapes[2], 3).to_dict(),
        lambda: minuscule.verify_csp(shapes[0], 2).to_dict(),
        lambda: minuscule.exact_period_vector_count(12, 6, 4),
        lambda: minuscule.count_fixed(minuscule.load_or_build_table(shapes[0]), 10**30, 10**30),
        lambda: minuscule.cyclotomic(12),
    ]

    def run(order):
        for cache in caches:
            cache.cache_clear()
        return {i: calls[i]() for i in order}

    assert run(range(len(calls))) == run(reversed(range(len(calls))))


def test_an_orbit_longer_than_the_state_cap_is_not_walked(capsys, monkeypatch):
    # The largest orbit at m = 5000 has 5000 tableaux: past a cap of 1000 the
    # witness walk is refused as a resource limit, with nothing on stdout.
    monkeypatch.setenv("MINUSCULE_STATE_CAP", "1000")
    code, out, err = run(capsys, "period", "--poset", "propeller-3", "--m", "5000")
    assert (code, out) == (2, "") and "state cap: 1000" in err
    monkeypatch.setenv("MINUSCULE_STATE_CAP", "5000")
    code, out, _ = run(capsys, "period", "--poset", "propeller-3", "--m", "5000")
    assert code == 0 and json.loads(out) == {"m": 5000, "max_orbit": 5000, "period": 5000}
