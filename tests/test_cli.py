from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz_components import abelian, cli


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv: str):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_example(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--group", "Zn:2", "--type1", "1|2,2", "--type2", "2|"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["chi"], doc["q"], doc["pg"], doc["ksq"]) == (1, 3, 3, 8)
    assert doc["schema_version"] == 1
    assert doc["beauville"] is False


def test_enumerate_lists_systems(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "Sym:3", "--type", "0|2,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert len(doc["systems"]) == 6
    assert all(len(ent) == 3 for ent in doc["systems"])


def test_enumerate_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--group", "Zn:11,11", "--type", "0|11,11,11", "--budget", "100"
    )
    assert code == 2
    assert "budget" in err.lower()
    # one ordering only: 9 elements of order 2 times 8 of order 3 (the 4 is solved)
    code, _, err = run_cli(
        capsys, "enumerate", "--group", "Sym:4", "--type", "0|2,3,4", "--budget", "10"
    )
    assert code == 2
    assert "needs 72 candidate tuples (> 10)" in err


@pytest.mark.parametrize("budget", ["0", "-5", "x"])
def test_budget_below_one_is_a_user_error(capsys, budget):
    code, out, err = run_cli(
        capsys,
        "count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5",
        "--budget", budget, "--no-cache",
    )
    assert code == 1 and out == ""
    assert "--budget" in err and "not a positive integer" in err


def test_budget_of_one_still_refuses(capsys):
    code, out, err = run_cli(
        capsys,
        "count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5",
        "--budget", "1", "--no-cache",
    )
    assert code == 2 and out == ""
    assert "(> 1)" in err


def test_scan_byte_identical_across_threads(capsys):
    # scan is the one subcommand that still accepts --threads, a no-op
    outs = []
    for threads in ("1", "4", "8"):
        code, out, _ = run_cli(
            capsys,
            "scan", "--group", "Sym:3", "--group", "Zn:2,2", "--chi", "1", "--q", "1",
            "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    assert doc["total_h"] == 2 and {row["group"] for row in doc["rows"]} == {"Sym:3", "Zn:2,2"}


def test_count_cache_replays_bytes(capsys, isolated_cache):
    argv = ("count", "--group", "Sym:3", "--type1", "0|2,2,3", "--type2", "0|2,2,3")
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, err2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache hit" not in err1
    assert "cache hit" in err2
    assert len(list(isolated_cache.glob("*.json"))) == 1


def test_count_recomputes_a_damaged_cache_entry(capsys, isolated_cache):
    argv = ("count", "--group", "Sym:3", "--type1", "0|2,2,3", "--type2", "0|2,2,3")
    _, fresh, _ = run_cli(capsys, *argv)
    (entry,) = isolated_cache.glob("*.json")
    entry.write_text(fresh[:40])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == fresh
    assert "cache hit" not in err and "damaged" in err
    assert entry.read_text() == fresh
    _, replay, err = run_cli(capsys, *argv)
    assert replay == fresh and "cache hit" in err
    assert [p.name for p in isolated_cache.iterdir()] == [entry.name]


def test_count_cache_dir_flag_overrides_env(capsys, tmp_path):
    other = tmp_path / "elsewhere"
    argv = (
        "count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|",
        "--cache-dir", str(other),
    )
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(list(other.glob("*.json"))) == 1


def test_count_prints_its_result_when_the_cache_cannot_be_written(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = ("count", "--group", "Sym:3", "--type1", "0|2,2,3", "--type2", "0|2,2,3")
    _, fresh, _ = run_cli(capsys, *argv, "--no-cache")
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(blocker / "entries"))
    assert code == 0
    assert out == fresh
    assert "warning: result not cached" in err
    assert blocker.read_text() == ""


def test_count_no_cache_leaves_no_files(capsys, isolated_cache):
    code, _, _ = run_cli(
        capsys, "count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|", "--no-cache"
    )
    assert code == 0
    assert not isolated_cache.exists()


def test_count_cache_key_ignores_the_seed(capsys, isolated_cache):
    # the seed only picks the labels of the pair stage's self-check
    argv = ("count", "--group", "Sym:3", "--type1", "0|2,2,3", "--type2", "0|2,2,3")
    code1, out1, err1 = run_cli(capsys, *argv, "--seed", "0")
    code2, out2, err2 = run_cli(capsys, *argv, "--seed", "1")
    assert code1 == code2 == 0
    assert "cache hit" not in err1 and "cache hit" in err2
    assert out1 == out2
    assert len(list(isolated_cache.glob("*.json"))) == 1


def test_count_cache_key_tracks_engine_version(capsys, isolated_cache, monkeypatch):
    argv = ("count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|")
    run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "__version__", "0.0.0-test")
    _, _, err = run_cli(capsys, *argv)
    assert "cache hit" not in err
    assert len(list(isolated_cache.glob("*.json"))) == 2


def test_count_one_stage_oracle_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5",
        "--oracle", "one-stage", "--no-cache",
    )
    assert code == 0
    assert json.loads(out)["h"] == 1


@pytest.mark.parametrize("oracle", ["two-stage", "one-stage"])
def test_count_prints_the_component_bound_warning(capsys, oracle):
    code, out, err = run_cli(
        capsys,
        "count", "--group", "Zn:2,2", "--type1", "1|2,2", "--type2", "2|",
        "--oracle", oracle, "--no-cache",
    )
    assert code == 0
    assert json.loads(out)["h"] == 2
    assert "warning: h = 2 exceeds the bound |G|^(r1+r2-2) = 1 for Zn:2,2" in err


def test_count_cache_hit_prints_the_component_bound_warning(capsys, tmp_path):
    argv = (
        "count", "--group", "Zn:2,2", "--type1", "1|2,2", "--type2", "2|",
        "--cache-dir", str(tmp_path / "entries"),
    )
    warning = "warning: h = 2 exceeds the bound |G|^(r1+r2-2) = 1 for Zn:2,2 (1|2,2) x (2|)"
    _, miss, err_miss = run_cli(capsys, *argv)
    code, hit, err_hit = run_cli(capsys, *argv)
    assert code == 0 and hit == miss
    assert "cache hit" not in err_miss and warning in err_miss
    assert "cache hit" in err_hit and warning in err_hit


def test_count_one_stage_budget_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "count", "--group", "Zn:11,11", "--type1", "0|11,11,11", "--type2", "0|11,11,11",
        "--oracle", "one-stage", "--no-cache",
    )
    assert code == 2
    assert "174240000" in err


@pytest.mark.parametrize("oracle", ["two-stage", "one-stage"])
def test_count_an_empty_side_answers_past_its_partners_budget(capsys, oracle):
    # Sym:4 (0|3,3,4) has no system; (1|2^8) would need 573,956,280 candidate tuples
    code, out, _ = run_cli(
        capsys,
        "count", "--group", "Sym:4", "--type1", "0|3,3,4", "--type2", "1|2,2,2,2,2,2,2,2",
        "--oracle", oracle, "--no-cache",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["h"], doc["orbit_sizes"], doc["total_pairs"]) == (0, [], 0)


def test_count_a_pair_settled_by_forced_columns_answers_past_the_budget(capsys):
    # every involution of Sym:3 marks its one class of order-2 subgroups, so
    # (0|2^18) and (1|2,2) have no disjoint pair; (0|2^18) would need
    # 43,046,721 candidate tuples, and (1|2,2) has systems
    argv = ("count", "--group", "Sym:3", "--type1", "0|" + ",".join("2" * 18), "--type2", "1|2,2")
    code, out, _ = run_cli(capsys, *argv, "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert (doc["h"], doc["orbit_sizes"], doc["total_pairs"]) == (0, [], 0)
    # the oracle enumerates without the rule, so it still refuses
    code, _, err = run_cli(capsys, *argv, "--oracle", "one-stage", "--no-cache")
    assert code == 2
    assert "needs 43046721 candidate tuples" in err


def test_user_error_exit_codes(capsys):
    assert run_cli(capsys, "count", "--group", "Zn:x", "--type1", "2|", "--type2", "2|")[0] == 1
    assert run_cli(capsys, "theta", "--n", "11", "--bogus")[0] == 1
    assert run_cli(capsys, "theta", "--n", "6")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "abelian-exists", "--group", "Sym:3", "--r1", "3", "--r2", "3")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "--group", "Zn:2", "--type1", "1|2,2", "--type2", "2|"),
        ("enumerate", "--group", "Sym:3", "--type", "0|2,2,3"),
        ("theta", "--n", "5"),
        ("abelian-exists", "--group", "Zn:5,5", "--r1", "3", "--r2", "3"),
    ],
)
def test_seed_is_rejected_where_nothing_reads_it(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--seed", "1")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "--group", "Zn:2", "--type1", "1|2,2", "--type2", "2|"),
        ("enumerate", "--group", "Sym:3", "--type", "0|2,2,3"),
        ("count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|", "--no-cache"),
        ("theta", "--n", "5"),
        ("abelian-exists", "--group", "Zn:5,5", "--r1", "3", "--r2", "3"),
        ("verify", "--budget", "1"),
    ],
)
def test_threads_is_rejected_outside_scan(capsys, argv):
    assert run_cli(capsys, *argv)[0] != 1
    code, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert code == 1 and out == ""
    assert "--threads" in err


def test_theta_reports_value_and_bounds(capsys):
    code, out, _ = run_cli(capsys, "theta", "--n", "35")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == 132
    assert doc["integral"] is True
    assert doc["n_count"] == 8640
    code, out, err = run_cli(capsys, "theta", "--n", "11")
    doc = json.loads(out)
    assert doc["theta"] == "701/9"
    assert doc["integral"] is False
    assert "ground truth" in err


def test_theta_cross_check(capsys):
    code, out, _ = run_cli(capsys, "theta", "--n", "13", "--cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["quadruple_count"] == doc["n_count"] == 11880
    assert doc["quadruple_count_agrees"] is True
    assert doc["quadruple_classes"] == 178
    assert doc["classes_match_theta"] is None
    code, _, _ = run_cli(capsys, "theta", "--n", "65", "--cross-check")
    assert code == 2


def test_theta_cross_check_reports_an_integral_value_that_is_not_the_count(capsys, monkeypatch):
    # theta(37) is an integer, yet not the number of classes
    masks = []
    real = abelian.quadruple_valid_mask

    def counted(n):
        masks.append(n)
        return real(n)

    monkeypatch.setattr(abelian, "quadruple_valid_mask", counted)
    code, out, err = run_cli(capsys, "theta", "--n", "37", "--cross-check")
    assert code == 0
    # the valid quadruples are counted from the class sizes, off one mask
    assert masks == [37]
    assert out == (
        '{"classes_match_theta":false,"integral":true,"lower_bound":19635,"n":37,'
        '"n_count":1413720,"quadruple_classes":19792,"quadruple_count":1413720,'
        '"quadruple_count_agrees":true,"schema_version":1,"theta":19796,"upper_bound":235620}\n'
    )
    doc = json.loads(out)
    assert (doc["theta"], doc["integral"]) == (19796, True)
    assert doc["quadruple_classes"] == 19792
    assert doc["classes_match_theta"] is False
    assert err == "warning: closed-form value 19796 is an integer but the class count is 19792 at n = 37\n"


def test_abelian_exists_reports_clauses(capsys):
    code, out, _ = run_cli(capsys, "abelian-exists", "--group", "Zn:5,5", "--r1", "3", "--r2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["admits"] is True
    assert doc["chain"] == [5, 5]
    assert all(c["holds"] for c in doc["clauses"])


def test_scan_catalog_ingestion(capsys, tmp_path):
    cat = tmp_path / "groups.txt"
    cat.write_text("Zn:2\n\n# note\nbogus-line\nZn:3\n")
    code, out, err = run_cli(capsys, "scan", "--catalog", str(cat), "--chi", "1", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["warning_count"] == 1
    assert "bogus-line" in err
    assert doc["total_h"] == 1
    assert doc["rows"][0]["group"] == "Zn:2"


def test_scan_empty_catalog_warns(capsys, tmp_path):
    cat = tmp_path / "empty.txt"
    cat.write_text("")
    code, out, err = run_cli(capsys, "scan", "--catalog", str(cat), "--chi", "1", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == []
    assert doc["warning_count"] == 1
    assert "empty" in err


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--group", "Zn:1", "--chi", "1", "--q", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,type1,type2,h,g1,g2"
    assert lines[1] == "Zn:1,2|,2|,1,2,2"


def test_scan_csv_reads_back_as_the_json_rows(capsys, tmp_path, q8_path):
    # group names (Zn:2,4) and types (0|3,3,3,3) hold commas, so those fields are quoted
    catalog = tmp_path / "census.txt"
    specs = ["Sym:3", "Sym:4", "Alt:4", "Zn:2,2", "Zn:2,4", "Zn:2,2,2", f"cayley:{q8_path}", "Alt:5"]
    catalog.write_text("\n".join(specs) + "\n")
    argv = ["scan", "--catalog", str(catalog), "--chi", "1", "--q", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["group", "type1", "type2", "h", "g1", "g2"]
    assert all(len(row) == 6 for row in table)
    code, out, _ = run_cli(capsys, *argv)
    rows = json.loads(out)["rows"]
    assert len(rows) == len(table) - 1 > 0
    assert any("," in row["type1"] for row in rows)
    assert [row[:3] for row in table[1:]] == [[r["group"], r["type1"], r["type2"]] for r in rows]
    assert [list(map(int, row[3:])) for row in table[1:]] == [[r["h"], r["g1"], r["g2"]] for r in rows]


def test_scan_missing_source_is_user_error(capsys):
    assert run_cli(capsys, "scan", "--chi", "1", "--q", "4")[0] == 1
    assert run_cli(capsys, "scan", "--catalog", "/nonexistent", "--chi", "1", "--q", "4")[0] == 1


def test_verify_budget_refusal_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--budget", "100")
    assert code == 2 and out == ""
    assert "budget exceeded: side enumeration" in err and "[FAIL]" not in err


def test_output_is_canonical_json(capsys):
    _, out, _ = run_cli(capsys, "theta", "--n", "35")
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_verify_runs_property_suites(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"move-invariants", "inner-automorphism-lemma", "two-route-agreement"} <= names
    assert all(c["passed"] for c in doc["checks"])
    routes = next(c for c in doc["checks"] if c["name"] == "two-route-agreement")
    assert routes["detail"] == "both orbit routes agree on 7 instances"
    assert "[ok]" in err


def test_verify_quaternion_table_is_the_q8_document(q8_path):
    G, doc = cli._quaternion_group(), json.loads(q8_path.read_text())
    assert G.labels == doc["labels"] and G._products.tolist() == doc["table"]
    assert G.name == cli.construct_group(f"cayley:{q8_path}").name


def _writes_to_a_stream(node: ast.AST) -> bool:
    """A print call, a sys.stdout / sys.stderr reference, or an import of either."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "sys" and node.attr in ("stdout", "stderr")
    if isinstance(node, ast.ImportFrom) and node.module == "sys":
        return any(a.name in ("stdout", "stderr") for a in node.names)
    return False


def test_library_modules_do_not_print():
    # the CLI owns stdout and stderr; every other module reports through return values
    paths = [p for p in sorted(Path(cli.__file__).parent.glob("*.py")) if p.name != "cli.py"]
    assert len(paths) >= 8
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _writes_to_a_stream(node)
    ]
    assert offenders == []


def _unread_imports(tree: ast.Module) -> list[str]:
    """Top-level imported names that the module never reads nor lists in __all__."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"{name}:{line}" for name, line in bound.items() if name not in read | exported]


def test_library_modules_read_every_import():
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    unread = [
        f"{path.name}:{where}"
        for path in paths
        for where in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unread == []


def test_counts_and_scans_do_not_import_numpy_ma(tmp_path, q8_path):
    # np.unique's plain form imports numpy.ma (about 15 ms) on first use;
    # groups.distinct stands in for it, so no count or scan pays that import
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(f"Sym:3\nSym:4\nZn:2,4\ncayley:{q8_path}\n")
    runs = [
        ["count", "--group", "Sym:4", "--type1", "0|3,4,4", "--type2", "1|2,2", "--no-cache"],
        ["count", "--group", "Sym:4", "--type1", "0|2,2,2,4", "--type2", "1|3", "--no-cache",
         "--oracle", "one-stage"],
        ["scan", "--catalog", str(catalog), "--chi", "1", "--q", "1"],
    ]
    script = (
        "import sys\n"
        "from hurwitz_components import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    _run_in_a_fresh_interpreter(script)


def _run_in_a_fresh_interpreter(script: str) -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_one_parser_serves_every_call_in_a_process():
    # each add_argument builds a help formatter; main builds the table's parser
    # (one top-level parser and one per subcommand) on its first call only
    runs = [
        ["theta", "--n", "5"],
        ["invariants", "--group", "Zn:2", "--type1", "1|2,2", "--type2", "2|"],
        ["count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|", "--no-cache"],
        ["count", "--group", "Zn:1", "--type1", "2|", "--type2", "2|", "--budget", "0"],
    ]
    script = (
        "import argparse, contextlib, io, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from hurwitz_components import cli\n"
        "counts = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "    counts.append(len(built))\n"
        "print(json.dumps([counts, built.count('hurwitz')]))\n"
    )
    counts, top_level = json.loads(_run_in_a_fresh_interpreter(script))
    assert counts == [8, 8, 8, 8]
    assert top_level == 1


def _on_a_fresh_parser(capsys, *argv: str):
    cli._build_parser.cache_clear()
    return run_cli(capsys, *argv)


def test_scan_groups_do_not_pile_up_across_calls(capsys):
    run_cli(capsys, "scan", "--group", "Sym:3", "--chi", "1", "--q", "1")
    argv = ("scan", "--group", "Zn:2,2", "--chi", "1", "--q", "1")
    reused = run_cli(capsys, *argv)
    assert {row["group"] for row in json.loads(reused[1])["rows"]} == {"Zn:2,2"}
    assert reused == _on_a_fresh_parser(capsys, *argv)


def test_a_flag_does_not_outlive_its_call(capsys):
    argv = ("count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5", "--no-cache")
    code, out, _ = run_cli(capsys, *argv, "--representatives")
    assert code == 0 and json.loads(out)["representatives"] is not None
    code, reused, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(reused)["representatives"] is None
    assert reused == _on_a_fresh_parser(capsys, *argv)[1]


def test_a_refused_parse_leaves_the_parser_usable(capsys):
    argv = ("count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5", "--no-cache")
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert code == 1 and out == "" and err.startswith("error:")
    reused = run_cli(capsys, *argv)
    assert reused[0] == 0
    assert reused[:2] == _on_a_fresh_parser(capsys, *argv)[:2]


def test_help_lists_every_subcommand_on_a_reused_parser(capsys):
    run_cli(capsys, "theta", "--n", "5")
    helps = []
    for run in (run_cli, _on_a_fresh_parser):
        with pytest.raises(SystemExit) as done:
            run(capsys, "--help")
        assert done.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "{invariants,enumerate,count,theta,abelian-exists,scan,verify}" in helps[0]
