"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a wrong recorded answer makes a run fail (failed > 0, non-zero
exit), that a directory without the engine is refused without a result,
and that self-time arithmetic is right on synthetic nested spans. Takes
about half a minute, most of it one abelian-square pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Span, Tracer  # noqa: E402


def check_self_time() -> None:
    t = Tracer()
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6.5]; a second root [20, 21]
    for name, start, end, parent in (
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
        ("a", 20.0, 21.0, -1),
    ):
        t.spans.append(Span(name, start, end, parent))
    assert t.self_seconds() == [5.5, 2.0, 1.0, 1.5, 1.0], t.self_seconds()
    tot = t.totals()
    assert tot["a"] == {"calls": 2, "seconds": 4.0, "self_seconds": 3.0}, tot["a"]
    assert sum(t.self_seconds()) == 11.0  # self times add up to the root spans

    # A wrapped generator is drained inside its span, and its children nest.
    t = Tracer()
    inner = t.wrap("inner", lambda: 7)
    gen = t.wrap("gen", lambda n: (inner() for _ in range(n)), consume=True)
    assert gen(3) == [7, 7, 7]
    assert [s.name for s in t.spans] == ["gen", "inner", "inner", "inner"]
    assert all(s.parent == 0 for s in t.spans[1:])
    own = t.self_seconds()
    assert abs(own[0] + sum(own[1:]) - t.spans[0].seconds) < 1e-12


def copy_benchmark(dest: Path) -> Path:
    """A checkout at dest holding only BENCHMARK.json and the benchmark."""
    shutil.copytree(HERE, dest / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def check_wrong_answer_fails(tmp: Path) -> None:
    # A checkout with the engine whose recorded answer for one case is wrong.
    planted = copy_benchmark(tmp / "planted")
    shutil.copytree(ROOT / "src", planted / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (planted / "tests" / "data").mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "data" / "q8.json", planted / "tests" / "data")
    path = planted / HERE.name / "expected.json"
    expected = json.loads(path.read_text())
    expected["Zn7x7"]["h"] += 1
    path.write_text(json.dumps(expected))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "abelian-square",
           "--seed", "5", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=planted, capture_output=True, text=True, timeout=180)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0, proc.returncode
    assert doc["correct"] is False and doc["failed"] > 0, doc
    assert doc["failed"] / doc["attempted"] > 0
    assert "Zn7x7" in proc.stderr, proc.stderr


def check_refused_without_engine(tmp: Path) -> None:
    bare = copy_benchmark(tmp / "bare")
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "census",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for check in (check_self_time, check_refused_without_engine, check_wrong_answer_fails):
            args = () if check is check_self_time else (Path(tmp),)
            check(*args)
            print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
