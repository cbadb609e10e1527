from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from hurwitz_components import cli


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


def test_count_byte_identical_across_threads(capsys):
    outs = []
    for threads in ("1", "4", "8"):
        code, out, _ = run_cli(
            capsys,
            "count", "--group", "Zn:5,5", "--type1", "0|5,5,5", "--type2", "0|5,5,5",
            "--threads", threads, "--no-cache",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    assert doc["h"] == 1 and doc["total_pairs"] == 11520


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


def test_user_error_exit_codes(capsys):
    assert run_cli(capsys, "count", "--group", "Zn:x", "--type1", "2|", "--type2", "2|")[0] == 1
    assert run_cli(capsys, "theta", "--n", "11", "--bogus")[0] == 1
    assert run_cli(capsys, "theta", "--n", "6")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "abelian-exists", "--group", "Sym:3", "--r1", "3", "--r2", "3")[0] == 1


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
