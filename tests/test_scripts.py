"""The scripts under scripts/ run from any working directory."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from polyloop import series
from polyloop.series import TruncSeries

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_outside(script, tmp_path, *argv):
    # without PYTHONPATH the script has to find src/ from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sphere_tables_runs_outside_the_repo(tmp_path):
    proc = _run_outside("sphere_tables.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    # sha256 of the default tables as first recorded
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "c059c50296615ef14f99a2b9c13df1c8f08ed2b85ae3ac6f8453ace32633172a"


def test_sphere_tables_refuses_bad_parameters_with_polyloop_exit_codes(tmp_path):
    for argv, code, message in (
        (("--ceiling", "1"), 2, "error: sphere ceiling below 2"),
        (("--ceiling", "2"), 3, "error: sphere ceiling 2 hides every sphere"),
        (("--pages", "1"), 2, "error: book decomposition needs"),
    ):
        proc = _run_outside("sphere_tables.py", tmp_path, *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


def test_reproduce_results_passes_outside_the_repo(tmp_path):
    # the sphere counts of the symbolic engine against the Hochster oracle,
    # and the decomposition series against the Koszul oracle
    proc = _run_outside("reproduce_results.py", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("ok   porter-hochster") for line in lines)
    # the default sweep includes a path above the old enumeration cap of 20
    assert [line.split()[:4] for line in lines if "l=40" in line] == [
        ["ok", "porter-hochster", "path", "l=40"], ["ok", "koszul", "path", "l=40"]]


def test_reproduce_results_low_series_order(tmp_path):
    # a low series order must not lower the sphere ceiling of the book checks
    proc = _run_outside("reproduce_results.py", tmp_path, "--N", "2", "--max-path", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and not any(line.startswith("FAIL") for line in lines)


def test_reproduce_results_reports_a_mismatch(monkeypatch, capsys):
    # in-process, with the Koszul oracle skewed in its top degree
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends src/
    spec = importlib.util.spec_from_file_location("reproduce_results",
                                                  SCRIPTS / "reproduce_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = series.koszul_loop_series

    def skewed(K, n):
        s = real(K, n)
        return TruncSeries(n, s.coeffs[:-1] + (s.coeffs[-1] + 1,))

    monkeypatch.setattr(series, "koszul_loop_series", skewed)
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--max-path", "2", "--books", "2,2"])
    assert script.main() == 1
    out = capsys.readouterr()
    assert [line.split()[:2] for line in out.out.splitlines()] == [
        ["ok", "porter-hochster"], ["FAIL", "koszul"], ["FAIL", "koszul"], ["FAIL", "koszul"],
    ]
    assert "MISMATCH FOUND" in out.err


def test_reproduce_results_refuses_a_malformed_book_pair(tmp_path):
    for books in ("4,x", "4", "2,2 3,2,1"):
        proc = _run_outside("reproduce_results.py", tmp_path, "--books", books)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == "" and "argument --books" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_reproduce_results_shows_a_refused_row_apart_from_a_mismatch(tmp_path):
    proc = _run_outside("reproduce_results.py", tmp_path, "--max-path", "2",
                        "--books", "2,2 0,2")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rows = [line.split()[:3] for line in proc.stdout.splitlines()]
    assert rows == [["ok", "porter-hochster", "path"], ["ok", "koszul", "path"],
                    ["ok", "koszul", "path"], ["ok", "koszul", "planar"],
                    ["exit", "2", "koszul"]]
    assert "MISMATCH FOUND" not in proc.stderr


_STUB_RUN = '''import json, os, sys
import helper
prefix = os.environ.get("PYTHONPYCACHEPREFIX")
mine = [os.path.join(r, f) for r, _, fs in os.walk(prefix or "") for f in fs
        if os.path.abspath(os.getcwd()) in r]
print(json.dumps({"tree": os.path.basename(os.getcwd()), "argv": sys.argv[1:],
                  "helper": helper.SOURCE, "prefix": prefix, "tree_bytecode": mine,
                  "no_write": os.environ.get("PYTHONDONTWRITEBYTECODE")}))
'''


def _stub_tree(root, name, package="perfbench", files=(("run.py", _STUB_RUN),)):
    # PACKAGE/helper.py whose cached bytecode, trusted unchecked, is stale
    import py_compile

    bench = root / name / package
    bench.mkdir(parents=True)
    for file, text in files:
        (bench / file).write_text(text, encoding="utf-8")
    helper = bench / "helper.py"
    helper.write_text('SOURCE = "stale"\n', encoding="utf-8")
    py_compile.compile(str(helper), cfile=importlib.util.cache_from_source(str(helper)),
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    helper.write_text('SOURCE = "fresh"\n', encoding="utf-8")
    return root / name


def test_bench_pairs_reads_no_bytecode_cached_in_a_tree(tmp_path):
    import json

    parent, change = _stub_tree(tmp_path, "parent"), _stub_tree(tmp_path, "change")
    proc = subprocess.run(["sh", str(SCRIPTS / "bench_pairs.sh"), str(parent), str(change),
                           "symbolic", "3", "0", "11", "12"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["tree"] for r in runs] == ["parent", "change", "change", "parent"]
    assert [r["argv"][-1] for r in runs] == ["0", "0", "0", "0"]
    assert [r["argv"][3] for r in runs] == ["11", "11", "12", "12"]
    for r in runs:
        # the source is read, not the tree's stale bytecode, and nothing is written
        assert r["helper"] == "fresh" and r["no_write"] == "1" and r["tree_bytecode"] == []
    prefixes = [r["prefix"] for r in runs]
    assert len(set(prefixes)) == 4 and not any(os.path.exists(p) for p in prefixes)


_STUB_ROWS = '''import os
TREE = os.path.basename(os.path.dirname(os.path.dirname(__file__)))


def value(row):
    with open(os.environ["LAYER_BENCH_LOG"], "a", encoding="utf-8") as log:
        log.write(f"{row} {TREE}\\n")
    return TREE if row == "changed" else 1
'''


def _layer_bench():
    spec = importlib.util.spec_from_file_location("layer_bench", SCRIPTS / "layer_bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_layer_bench_alternates_the_trees_and_reports_a_changed_digest(tmp_path, monkeypatch,
                                                                       capsys):
    # in-process, with rows that call a stub module in each of two stub trees
    for name in ("a", "b"):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "src" / "stubrows.py").write_text(_STUB_ROWS, encoding="utf-8")
    log = tmp_path / "log"
    monkeypatch.setenv("LAYER_BENCH_LOG", str(log))
    script = _layer_bench()
    rows = {r: ("from stubrows import value", f"value({r!r})", "result") for r in ("same", "changed")}
    monkeypatch.setattr(script, "ROWS", rows)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    monkeypatch.setattr(sys, "argv", ["layer_bench.py", "--repeat", "3", a, b])
    assert script.main() == 1  # a digest changed
    # each run a fresh child, and the tree that goes first alternates from run to run
    assert log.read_text(encoding="utf-8").split() == [
        "same", "a", "same", "b", "changed", "a", "changed", "b",
        "same", "b", "same", "a", "changed", "b", "changed", "a",
        "same", "a", "same", "b", "changed", "a", "changed", "b",
    ]
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["row"] for line in lines] == ["same", "changed"]
    for line in lines:
        assert set(line) == {"row", "trees", "runs", "min_s", "median_s", "sha256",
                             "digest_changed", "exit"}
        assert line["trees"] == [a, b] and line["runs"] == 3 and line["exit"] == [0, 0]
        assert all(0 <= low <= mid for low, mid in zip(line["min_s"], line["median_s"]))
        assert all(len(sha) == 64 for sha in line["sha256"])
    same, changed = lines
    assert same["sha256"][0] == same["sha256"][1] and not same["digest_changed"]
    assert changed["sha256"][0] != changed["sha256"][1] and changed["digest_changed"]


def test_layer_bench_refuses_an_unknown_row(tmp_path):
    repo = str(SCRIPTS.parent)
    proc = _run_outside("layer_bench.py", tmp_path, repo, repo, "no.such_row")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unknown rows ['no.such_row']" in proc.stderr


def test_layer_bench_rows_run_and_agree_on_one_tree(tmp_path):
    # every row but the six slowest, against this tree twice
    repo = str(SCRIPTS.parent)
    slow = {"homology.hochster_cone_c17", "homology.hochster_grid_4x5",
            "spacealg.parse_readback_porter_15",
            "spacealg.normalize_readback_porter_15", "decomp.dj_book_series_10_2",
            "cli.verify_koszul_planar_book_10_2_N_1024"}
    rows = [r for r in _layer_bench().ROWS if r not in slow]
    proc = _run_outside("layer_bench.py", tmp_path, "--repeat", "1", repo, repo, *rows)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [json.loads(line)["row"] for line in proc.stdout.splitlines()] == rows


def test_layer_bench_reports_one_line_per_command_and_tree(tmp_path):
    repo = str(SCRIPTS.parent)
    proc = _run_outside("layer_bench.py", tmp_path, "--repeat", "1", repo, repo, "build points 1")
    assert proc.returncode == 0, proc.stderr
    (line,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert line["row"] == "build points 1" and line["trees"] == [repo, repo]
    assert line["exit"] == [0, 0] and all(s > 0 for s in line["min_s"])
    # the digest is that of the command's stdout
    env = {**os.environ, "PYTHONPATH": os.path.join(repo, "src")}
    out = subprocess.run([sys.executable, "-m", "polyloop", "build", "points", "1"], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    assert line["sha256"] == [hashlib.sha256(out).hexdigest()] * 2


def test_layer_bench_shows_a_failing_command_and_exits_1(tmp_path):
    repo = str(SCRIPTS.parent)
    proc = _run_outside("layer_bench.py", tmp_path, "--repeat", "1", repo, repo,
                        "build points 1", "decompose path x")
    assert proc.returncode == 1, proc.stderr
    ok, bad = [json.loads(line) for line in proc.stdout.splitlines()]
    assert ok["row"] == "build points 1" and ok["exit"] == [0, 0] and not ok["digest_changed"]
    assert bad["row"] == "decompose path x" and bad["exit"] == [2, 2]
    assert bad["min_s"] == bad["sha256"] == [None, None]


def test_layer_bench_refuses_fewer_than_one_run(tmp_path):
    repo = str(SCRIPTS.parent)
    proc = _run_outside("layer_bench.py", tmp_path, "--repeat", "0", repo, repo, "build points 1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == "" and "argument --repeat" in proc.stderr


def test_layer_bench_runs_api_jobs_through_the_benchmark_child(tmp_path, monkeypatch):
    # in-process, so the commands each run spawns can be read back
    script = _layer_bench()
    spawned = []
    real = script.Popen
    monkeypatch.setattr(script, "Popen", lambda cmd, **kw: spawned.append(cmd) or real(cmd, **kw))
    text = tmp_path / "porter.txt"
    text.write_text("(wedge (sphere 3) (sphere 3) (sphere 4))", encoding="utf-8")
    prefix = tmp_path / "prefix"
    script.stdlib_pycache(str(prefix))
    repo = str(SCRIPTS.parent)
    for row in ("api hm 2,3 8", f"api readback {text} 5", "build points 1"):
        seconds, digest, code = script.run_row(repo, row, str(prefix))
        assert seconds > 0 and len(digest) == 64 and code == 0
    child = os.path.join(repo, "perfbench", "child.py")
    assert spawned == [
        [sys.executable, child, "api", "hm", "2,3", "8"],
        [sys.executable, child, "api", "readback", str(text), "5"],
        [sys.executable, "-m", "polyloop", "build", "points", "1"],
    ]


_STUB_MAIN = (("__init__.py", ""), ("__main__.py", "from polyloop import helper\nprint(helper.SOURCE)\n"))


def test_layer_bench_command_rows_read_no_bytecode_cached_in_a_tree(tmp_path, monkeypatch):
    a, b = (str(_stub_tree(tmp_path, name, "src/polyloop", _STUB_MAIN)) for name in ("a", "b"))
    monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))  # where the script makes its prefix
    (tmp_path / "tmp").mkdir()
    before = sorted(tmp_path.rglob("*"))
    proc = _run_outside("layer_bench.py", tmp_path, "--repeat", "2", a, b, "build stub")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the source is read, not the tree's stale bytecode, on both trees
    assert json.loads(proc.stdout)["sha256"] == [hashlib.sha256(b"fresh\n").hexdigest()] * 2
    # nothing is written into either tree, and the prefix is gone
    assert sorted(tmp_path.rglob("*")) == before
