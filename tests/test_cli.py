"""Command line interface: output formats, exit codes, caching, atomic writes,
and the modules each subcommand imports."""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import polyloop
from polyloop import cli, decomp, homology, series
from polyloop.complexes import cycle_graph
from polyloop.series import TruncSeries
from polyloop.spheres import SphereMultiset


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_path_json(capsys):
    code, out, _ = _run(capsys, "build", "path", "3")
    assert code == 0
    assert json.loads(out) == {"m": 4, "facets": [[0, 1], [1, 2], [2, 3]]}


def test_build_families(capsys):
    for argv, m in [
        (("build", "cycle", "4"), 4),
        (("build", "points", "3"), 3),
        (("build", "simplex", "2"), 3),
        (("build", "book", "1", "3", "2"), 4),
        (("build", "planar-book", "2", "2"), 5),
    ]:
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["m"] == m


def test_output_is_byte_identical(capsys):
    _, out1, _ = _run(capsys, "decompose", "path", "3")
    _, out2, _ = _run(capsys, "decompose", "path", "3")
    assert out1 == out2
    obj = json.loads(out1)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == out1


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("decompose", "path", "12"),
         "c7b043f9119ec4a1a5341ef0f240e4ad2c30b29271214bb773af6bcfdbcc815f"),
        (("decompose", "planar-book", "6", "3"),
         "126b34011f1f94c3a1326d7314ee775afbd0f4e741b201f8f776ad6b1b538f1e"),
        (("decompose", "planar-book", "4", "2", "--N", "24"),
         "97a79923a7bfa516020c103dc08ba5a69e12ce6eaf433cb797fc2b3be6d9cae5"),
        # a ceiling far above the top sphere, and a deep one through loops
        (("decompose", "path", "6", "--max-dim", "3000000"),
         "65f6cbea1417b5f8917e0d9c61007f952add85306c9c4f2d3ac30e63fde060f2"),
        (("decompose", "planar-book", "3", "2", "--max-dim", "200"),
         "e7a9bbdd2c0b7d7f7112eed8d38252e5abac361e828bd83ba86a90f6e5fa3caf"),
    ],
)
def test_decompose_stdout_is_pinned(capsys, argv, digest):
    # sha256 of stdout as first recorded; any change to the bytes fails here
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("series", "koszul", "path", "6", "--N", "1024"),
         "a6f8ca5fec2ff29e9cb9d56b213157f6a719920f2cb389b93c1aa769d0369f7a"),
        (("series", "hilbert", "cycle", "9", "--N", "1024"),
         "f308906199f00ea0772d92ddad95ce3fd59ed0fa8210d466d012949d45948db2"),
        (("series", "koszul", "planar-book", "4", "3", "--N", "960"),
         "141795c8f8c3c730eb1ba7462903d6f2a738a40596c39241f4d2d2662f05304a"),
        (("series", "koszul", "cycle", "10", "--N", "1024"),
         "00d72a9efb816b30adf6385a3c2d6d7ad853d29d6d75f22e07ef0edd1fbb8b5b"),
    ],
)
def test_series_stdout_is_pinned(capsys, argv, digest):
    # sha256 of stdout as recorded from the dense O(N^2) series oracles
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_format(capsys):
    code, out, _ = _run(capsys, "build", "path", "2", "--format", "text")
    assert code == 0
    assert "m: 2" not in out and "m: 3" in out


def test_build_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "complex.json"
    code, out1, _ = _run(capsys, "build", "planar-book", "2", "3", "--out", str(target))
    assert code == 0 and out1 == ""
    code, out2, _ = _run(capsys, "build", "file", str(target))
    assert code == 0
    assert out2 == target.read_text()


def test_glue_spec_file(tmp_path, capsys):
    spec = {
        "base": {"m": 2, "facets": [[0, 1]]},
        "sub_a": [0],
        "sub_b": [1],
        "psi": [1, 0],
        "copies": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, "build", "glue-spec-file", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 3 and len(obj["facets"]) == 2


@pytest.mark.parametrize("command", ["build", "hochster"])
@pytest.mark.parametrize("complex_obj", [
    {"m": 2, "facets": [[0, "a"]]},
    {"m": 3, "facets": [5]},
    {"m": 3, "facets": [[0, 1.5], [1], [2]]},
    {"m": 2, "facets": [[True, 0]]},
    {"m": True, "facets": [[0]]},
])
def test_malformed_complex_json_is_refused(tmp_path, capsys, command, complex_obj):
    # exit 2 is bad input; exit 1 would claim a verification mismatch
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_obj))
    code, out, err = _run(capsys, command, "file", str(path))
    assert code == 2 and out == "" and "Traceback" not in err


_GLUE_SPEC = {"base": {"m": 2, "facets": [[0, 1]]}, "sub_a": [0], "copies": 2}


@pytest.mark.parametrize("family, content, message", [
    ("file", None, "cannot read"),
    ("file", "{not json", "is not valid JSON"),
    ("glue-spec-file", json.dumps([_GLUE_SPEC]), "glue spec must be a JSON object"),
    ("glue-spec-file", json.dumps(_GLUE_SPEC), "glue spec is missing key 'sub_b'"),
])
def test_unloadable_family_file_is_refused(tmp_path, capsys, family, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, "build", family, str(path))
    assert code == 2 and out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("change", [
    {"copies": "2"},
    {"sub_a": 0},
    {"phi": [5]},
    {"phi": 5},
])
def test_malformed_glue_spec_is_refused(tmp_path, capsys, change):
    spec = {
        "base": {"m": 2, "facets": [[0, 1]]},
        "sub_a": [0],
        "sub_b": [1],
        "psi": [1, 0],
        "copies": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, **change}))
    code, out, err = _run(capsys, "build", "glue-spec-file", str(path))
    assert code == 2 and out == "" and "Traceback" not in err


def test_out_writes_atomically(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, _, _ = _run(capsys, "decompose", "path", "2", "--out", str(target))
    assert code == 0
    _, stdout_version, _ = _run(capsys, "decompose", "path", "2")
    assert target.read_text() == stdout_version
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".polyloop-")]
    assert leftovers == []


def test_out_into_missing_directory_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, _, err = _run(capsys, "build", "path", "2", "--out", str(target))
    assert code == 2
    assert "error" in err


def test_decompose_planar_book(capsys):
    code, out, _ = _run(capsys, "decompose", "planar-book", "2", "2", "--N", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"]["coeffs"] == [1, 5, 14, 32, 68, 140, 284, 572, 1148]
    assert obj["spheres"]["fibre"] == {"2": 2}
    assert {f["name"] for f in obj["factors"]} == {
        "circles",
        "loop-path-fibre",
        "loop-page-fibre-wedge",
    }


def test_decompose_book_symbolic(capsys):
    code, out, _ = _run(capsys, "decompose", "book", "1", "4", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"] is None and obj["spheres"] is None


def test_series_subcommand(capsys):
    code, out, _ = _run(capsys, "series", "hilbert", "path", "2", "--N", "4")
    assert code == 0
    assert json.loads(out) == {"N": 4, "coeffs": [1, 3, 5, 7, 9]}
    code, out, _ = _run(capsys, "series", "koszul", "path", "2", "--N", "4")
    assert json.loads(out)["coeffs"] == [1, 3, 4, 4, 4]


def test_hochster_subcommand(capsys):
    code, out, _ = _run(capsys, "hochster", "cycle", "4")
    assert code == 0
    assert json.loads(out) == {"betti": {"0": 1, "3": 2, "6": 1}, "m": 4}


def test_hochster_jobs_do_not_change_output(capsys, monkeypatch):
    _, out1, _ = _run(capsys, "hochster", "path", "5", "--jobs", "1")
    _, out2, _ = _run(capsys, "hochster", "path", "5", "--jobs", "2")
    assert out1 == out2
    # --jobs 0 asks for every core; a graph starts no pool, so this stays cheap
    real, jobs = homology.hochster_zk_betti, []
    monkeypatch.setattr(homology, "hochster_zk_betti",
                        lambda K, **kw: jobs.append(kw["jobs"]) or real(K, **kw))
    _, out0, _ = _run(capsys, "hochster", "path", "5", "--jobs", "0")
    assert out0 == out1 and jobs == [None]


def test_hochster_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out1, _ = _run(
        capsys, "hochster", "cycle", "5", "--cache-dir", str(cache)
    )
    assert code == 0
    entries = list(cache.glob("hochster-*.json"))
    assert len(entries) == 1
    cached = json.loads(entries[0].read_text())
    assert cached == json.loads(out1)
    code, out2, _ = _run(
        capsys, "hochster", "cycle", "5", "--cache-dir", str(cache)
    )
    assert out2 == out1
    assert len(list(cache.glob("hochster-*.json"))) == 1


def test_hochster_cache_cannot_change_the_exit_code(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert _run(capsys, "hochster", "path", "6", "--cache-dir", str(cache))[0] == 0
    code, out, err = _run(capsys, "hochster", "path", "6", "--cache-dir", str(cache),
                          "--ceiling", "5")
    assert code == 5 and out == "" and "cap" in err


def test_hochster_cache_refuses_ghosts_before_the_lookup(tmp_path, capsys):
    spec = tmp_path / "ghost.json"
    spec.write_text(json.dumps({"m": 3, "facets": [[0, 1]]}))
    cache = tmp_path / "cache"
    code, out, _ = _run(capsys, "hochster", "file", str(spec), "--cache-dir", str(cache))
    assert code == 2 and out == "" and not cache.exists()


@pytest.mark.parametrize("content", [
    "{not json",
    "\udcff",
    json.dumps([1, 2]),
    json.dumps({"betti": {"0": 1}}),
    json.dumps({"betti": {"0": 1, "3": 5}, "m": 6}),
    json.dumps({"betti": {"0": 1, "x": 5}, "m": 5}),
    json.dumps({"betti": {"0": 1, "3": -5}, "m": 5}),
    json.dumps({"betti": {"3": 5}, "m": 5}),
    json.dumps({"betti": {"0": 1, "03": 5, "4": 5, "7": 1}, "m": 5}),
])
def test_hochster_cache_rewrites_a_malformed_entry(tmp_path, capsys, content):
    cache = tmp_path / "cache"
    _, fresh, _ = _run(capsys, "hochster", "cycle", "5", "--cache-dir", str(cache))
    (entry,) = cache.glob("hochster-*.json")
    entry.write_text(content, errors="surrogateescape")
    code, out, _ = _run(capsys, "hochster", "cycle", "5", "--cache-dir", str(cache))
    assert code == 0 and out == fresh
    assert json.loads(entry.read_text()) == json.loads(fresh)


def test_hochster_cache_store_failure_leaves_no_temp_file(tmp_path, capsys):
    # a directory at the entry path: the lookup misses and the store fails
    cache = tmp_path / "cache"
    _run(capsys, "hochster", "cycle", "5", "--cache-dir", str(cache))
    (entry,) = cache.glob("hochster-*.json")
    entry.unlink()
    entry.mkdir()
    code, out, _ = _run(capsys, "hochster", "cycle", "5", "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert os.listdir(cache) == [entry.name]


def test_hochster_cache_key_carries_a_schema_version(tmp_path, capsys):
    # an entry under the unversioned key of the same complex is never read
    cache = tmp_path / "cache"
    cache.mkdir()
    canonical = json.dumps(cycle_graph(5).to_json_obj(), sort_keys=True, separators=(",", ":"))
    old = cache / f"hochster-{hashlib.sha256(canonical.encode()).hexdigest()}.json"
    old.write_text(json.dumps({"betti": {"0": 1}, "m": 5}))
    _, out, _ = _run(capsys, "hochster", "cycle", "5", "--cache-dir", str(cache))
    assert json.loads(out)["betti"] == {"0": 1, "3": 5, "4": 5, "7": 1}


def test_verify_porter_hochster(capsys):
    code, out, _ = _run(capsys, "verify", "porter-hochster", "path", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["checks"] == [{"name": "porter-hochster", "status": "pass"}]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("hochster", "path", "14"),
         "c8ceb3a8562cc8a5060ae7f06a454645b3b6b2dc17a3098ced7a04176ba4fd68"),
        (("hochster", "cycle", "15"),
         "9ecff42410e855812212947dfb7ef4e10e3de4bb210f42a52d0b6487ac0af144"),
        (("hochster", "planar-book", "4", "3"),
         "8c7e38dc4f29211ffa5cbfdb1350437f34e3879ee9302c274545d2b2cd225282"),
        (("hochster", "planar-book", "5", "3"),
         "54e68a6503d3db6329905e39b5569d6a71961fcaeb13d317b5f9b4b1c96e29b2"),
        (("verify", "porter-hochster", "path", "14", "--jobs", "2"),
         "c36996a199f01d73ac01711b7db5cbf9851ae24c9de9e9848b553c03d275cfbc"),
    ],
)
def test_hochster_stdout_is_pinned(capsys, argv, digest):
    # sha256 of stdout as recorded while the oracle summed over all 2^m subsets
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["porter-hochster", "all"])
def test_verify_refuses_before_the_engine_runs(capsys, monkeypatch, mode):
    def engine_must_not_run(*args, **kwargs):
        raise AssertionError("the Porter engine ran for a path above the ceiling")

    monkeypatch.setattr(decomp, "path_fibre_reduce", engine_must_not_run)
    code, out, err = _run(capsys, "verify", mode, "path", "21")
    assert code == 5 and out == "" and "cap" in err


def test_verify_koszul_path_and_book(capsys):
    assert _run(capsys, "verify", "koszul", "path", "3")[0] == 0
    assert _run(capsys, "verify", "koszul", "planar-book", "2", "2")[0] == 0
    assert _run(capsys, "verify", "koszul", "book", "2", "4", "2")[0] == 0


def test_verify_all_runs_both_checks(capsys):
    code, out, _ = _run(capsys, "verify", "all", "path", "3")
    assert code == 0
    obj = json.loads(out)
    assert [c["name"] for c in obj["checks"]] == ["porter-hochster", "koszul"]


def test_verify_reports_mismatch(capsys, monkeypatch):
    real = series.koszul_loop_series

    def skewed(K, n):
        s = real(K, n)
        return TruncSeries(n, s.coeffs[:5] + (s.coeffs[5] + 1,) + s.coeffs[6:])

    monkeypatch.setattr(series, "koszul_loop_series", skewed)
    code, out, _ = _run(capsys, "verify", "koszul", "path", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail"
    disc = obj["checks"][0]["first_discrepancy"]
    assert disc["degree"] == 5 and disc["oracle"] == disc["engine"] + 1


def test_verify_reports_porter_hochster_mismatch(capsys, monkeypatch):
    real = homology.zk_sphere_multiset

    def skewed(K, **kwargs):
        ms = real(K, **kwargs)
        return SphereMultiset({**ms.counts, 4: ms.counts[4] + 1}, ms.max_dim, ms.truncated)

    monkeypatch.setattr(homology, "zk_sphere_multiset", skewed)
    code, out, _ = _run(capsys, "verify", "porter-hochster", "path", "3")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail"
    assert obj["checks"][0]["first_discrepancy"] == {"dimension": 4, "engine": 2, "oracle": 3}
    code, out, _ = _run(capsys, "verify", "porter-hochster", "path", "3", "--format", "text")
    assert code == 1
    assert out.splitlines()[:5] == [
        "checks:",
        "  -",
        '    first_discrepancy: {"dimension": 4, "engine": 2, "oracle": 3}',
        '    name: "porter-hochster"',
        '    status: "fail"',
    ]


def test_verify_rejects_unsupported(capsys):
    code, _, err = _run(capsys, "verify", "porter-hochster", "planar-book", "2", "2")
    assert code == 2 and "paths only" in err


def test_exit_codes():
    # argparse rejects an unknown family, and --max-dim on verify (which has
    # no such option), with its usual exit code
    for argv in (
        ["build", "dodecahedron", "1"],
        ["verify", "koszul", "planar-book", "2", "2", "--max-dim", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_exit_invalid_params(capsys):
    assert _run(capsys, "build", "path", "0")[0] == 2
    assert _run(capsys, "build", "path")[0] == 2
    assert _run(capsys, "build", "path", "x")[0] == 2
    assert _run(capsys, "decompose", "path", "2", "3")[0] == 2
    assert _run(capsys, "decompose", "book", "1", "3", "2", "--N", "-1")[0] == 2
    # build, decompose and verify share one arity check
    for argv in (["build"], ["decompose"], ["verify", "koszul"], ["verify", "all"]):
        assert _run(capsys, *argv, "planar-book", "2") == (
            2, "", "error: family 'planar-book' takes 2 parameter(s)\n")


@pytest.mark.parametrize("argv", [
    ("decompose", "path", "3"),
    ("decompose", "planar-book", "2", "2"),
    ("decompose", "book", "1", "3", "2"),
    ("verify", "koszul", "path", "3"),
    ("verify", "koszul", "book", "2", "4", "2"),
    ("series", "koszul", "path", "3"),
    ("series", "hilbert", "path", "3"),
])
def test_negative_series_order_has_one_refusal(capsys, argv):
    # the engine and the oracles word it alike, whichever of them runs first
    assert _run(capsys, *argv, "--N", "-1") == (
        2, "", "error: truncation order must be nonnegative\n")


def test_exit_ceiling_too_small(capsys):
    code, _, err = _run(capsys, "decompose", "planar-book", "3", "2", "--max-dim", "2")
    assert code == 3 and "ceiling" in err


def test_exit_not_flag(capsys):
    code, _, err = _run(capsys, "series", "koszul", "cycle", "3")
    assert code == 4
    code, _, _ = _run(capsys, "verify", "koszul", "book", "1", "3", "2")
    assert code == 4


def test_exit_ground_size_cap(capsys):
    code, _, err = _run(capsys, "hochster", "path", "5", "--ceiling", "4")
    assert code == 5


def test_verify_book_off_family(capsys):
    # flag book without the doubled-length structure: no engine exists
    code, _, err = _run(capsys, "verify", "koszul", "book", "2", "5", "2")
    assert code == 2 and "planar" in err


def test_verify_book_off_family_is_refused_before_the_oracle_runs(capsys, monkeypatch):
    def oracle_must_not_run(K, n):
        raise AssertionError("koszul_loop_series called for a book with no engine")

    monkeypatch.setattr(series, "koszul_loop_series", oracle_must_not_run)
    code, _, err = _run(capsys, "verify", "koszul", "book", "2", "5", "2")
    assert code == 2 and "planar" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules_after(code: str, *argv: str) -> set[str]:
    """sys.modules of a fresh `python -S` child (no site imports to mask or
    add any) after it runs code, which sees argv as sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": SRC}
    script = code + "\nprint(*sorted(sys.modules), sep='\\n', file=sys.stderr)"
    done = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


def _cli_modules(*argv: str) -> set[str]:
    return _modules_after("import sys, polyloop.cli\npolyloop.cli.main(sys.argv[1:])", *argv)


def test_each_subcommand_imports_only_what_it_runs():
    build = _cli_modules("build", "path", "8")
    assert not build & {"polyloop.series", "polyloop.homology", "polyloop.spacealg",
                        "polyloop.decomp", "multiprocessing", "hashlib"}
    series = _cli_modules("series", "koszul", "path", "8", "--N", "8")
    assert series - build == {"polyloop.series"}
    hochster = _cli_modules("hochster", "path", "9", "--jobs", "2")
    assert "polyloop.homology" in hochster
    assert not hochster & {"multiprocessing", "polyloop.spacealg", "polyloop.decomp"}
    decompose = _cli_modules("decompose", "path", "4")
    assert not decompose & {"polyloop.homology", "multiprocessing"}
    koszul = _cli_modules("verify", "koszul", "planar-book", "3", "2")
    assert "polyloop.homology" not in koszul
    every = _cli_modules("verify", "all", "path", "8")
    assert "polyloop.homology" in every
    # the value types are records, so start-up loads neither of these
    for loaded in (build, series, hochster, decompose, koszul, every):
        assert not loaded & {"dataclasses", "inspect"}


def test_bare_package_import_loads_no_submodule():
    loaded = _modules_after("import sys, polyloop")
    assert "polyloop" in loaded
    assert not {m for m in loaded if m.startswith("polyloop.")}


def test_package_exports_resolve_to_their_modules():
    for name in polyloop.__all__:
        module = importlib.import_module(f"polyloop.{polyloop._EXPORTS[name]}")
        assert getattr(polyloop, name) is getattr(module, name)
    assert set(polyloop.__all__) <= set(dir(polyloop))
    with pytest.raises(AttributeError, match="no_such_name"):
        polyloop.no_such_name
