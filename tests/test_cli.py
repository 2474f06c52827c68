"""Command line interface: output formats, exit codes, caching, atomic writes,
and the modules each subcommand imports."""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import cli_reference
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
        # the endpoint fibre's l = 2 branch, the symbolic book, and the path
        # whose fibre is the point
        (("decompose", "planar-book", "2", "2"),
         "0e9d5ae4ffe199d04babe598a46a2b1d2ebcc5b3af0c634624d8097d85fc37c6"),
        (("decompose", "book", "1", "3", "2"),
         "91ae53e000199e11f50430c23f92ba7e6f7bf4672b0a6a805e1403c3647ca73f"),
        (("decompose", "path", "1"),
         "8fcce7ec8cbfa3438556dfe4ab8e78a8c91fb882563135e8b4e5a1e2ed0de449"),
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
    {"phi": [[0, 1], [1, 0]]},
    {"phi": [[0, 0]]},
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


def test_glue_spec_phi_leaves_the_glued_complex_unchanged(tmp_path, capsys):
    # a relabelling of a copy moves its faces and its identification alike
    spec = {"base": {"m": 4, "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
            "sub_a": [0, 1], "sub_b": [0, 1], "copies": 3}
    outs = []
    for extra in ({}, {"phi": [[2, 0, 3, 1], [1, 3, 0, 2]]}):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, **extra}))
        code, out, _ = _run(capsys, "build", "glue-spec-file", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["m"] == 8


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


# the decompositions of the benchmark's symbolic jobs, and a book whose atom
# names are quoted inside the JSON string
_STREAMED = (
    [("path", str(l)) for l in range(1, 17)]
    + [("planar-book", str(l), str(p)) for l in (5, 6, 7) for p in (2, 3, 4)]
    + [("book", "1", "3", "2")]
)


@pytest.mark.parametrize("params", _STREAMED, ids=" ".join)
def test_decompose_writes_the_bytes_of_the_whole_document(capsys, tmp_path, params):
    for fmt in ("json", "text"):
        argv = ["decompose", *params, "--format", fmt]
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        cli_reference.cmd_decompose(cli.build_parser().parse_args(argv))
        want = capsys.readouterr().out
        assert got == want
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        assert cli.main(argv + ["--out", str(new)]) == 0
        cli_reference.cmd_decompose(cli.build_parser().parse_args(argv + ["--out", str(old)]))
        assert capsys.readouterr().out == ""
        assert new.read_bytes() == old.read_bytes() == want.encode()
    assert sorted(os.listdir(tmp_path)) == ["new.json", "new.text", "old.json", "old.text"]


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


def test_hochster_jobs_do_not_change_output(capsys):
    # --jobs is accepted and ignored: the oracle runs in one process
    outs = {_run(capsys, "hochster", "path", "5", "--jobs", j)[1] for j in ("0", "1", "2")}
    assert len(outs) == 1


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


@pytest.mark.parametrize("argv, code", [
    (("hochster",), 2), (("series", "hilbert"), 2), (("series", "koszul"), 4),
])
def test_a_ghost_refusal_is_short_however_many_ghosts(tmp_path, capsys, argv, code):
    spec = tmp_path / "ghosts.json"
    spec.write_text(json.dumps({"m": 3_000_000, "facets": [[0, 1]]}))
    got, out, err = _run(capsys, *argv, "file", str(spec))
    assert got == code and out == "" and len(err) < 1024


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
        # complexes of dimension 2, whose connected sets add their higher homology:
        # the cone over C9 and RP^2
        (("hochster", "file", {"m": 10, "facets": [[i, (i + 1) % 9, 9] for i in range(9)]}),
         "235489b7339b07961da46381c77e0c924406ba543d213521fd1f4b3f2c8d86c7"),
        (("hochster", "file", {"m": 6, "facets": [
            [0, 1, 3], [0, 1, 5], [0, 2, 4], [0, 2, 5], [0, 3, 4],
            [1, 2, 3], [1, 2, 4], [1, 4, 5], [2, 3, 5], [3, 4, 5]]}),
         "51dc7e0a671a84d82d98044450848220f4d97d0f9c5a54d0f9d1f8fb65114726"),
    ],
)
def test_hochster_stdout_is_pinned(capsys, tmp_path, argv, digest):
    # sha256 of stdout as recorded while the oracle summed over all 2^m subsets
    # with dense Bareiss elimination; a dict is a complex, read from a JSON file
    complex_file = tmp_path / "complex.json"
    args = []
    for a in argv:
        if isinstance(a, dict):
            complex_file.write_text(json.dumps(a), encoding="utf-8")
            a = str(complex_file)
        args.append(a)
    code, out, _ = _run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["porter-hochster", "all", "koszul --N 1024"])
def test_verify_passes_on_paths_above_twenty_vertices(capsys, mode):
    # a path has about m^2/2 connected sets, so the enumeration cap does not
    # apply; at a large order the engine's series of the path agrees too
    mode, *opts = mode.split()
    code, out, _ = _run(capsys, "verify", mode, "path", "40", *opts)
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_verify_builds_only_the_sphere_report_it_compares(capsys, monkeypatch):
    # the Koszul check reads no report, and the Porter check reads the path
    # fibre's alone: no page fibre report is built
    real, built = decomp._visible_spheres, []

    def recorded(e, max_dim, name):
        built.append(name)
        return real(e, max_dim, name)

    monkeypatch.setattr(decomp, "_visible_spheres", recorded)
    for argv, want in [
        (("koszul", "path", "6"), []),
        (("koszul", "planar-book", "4", "3"), []),
        (("koszul", "book", "3", "6", "2"), []),
        (("all", "path", "6"), ["path fibre"]),
    ]:
        built.clear()
        assert _run(capsys, "verify", *argv)[0] == 0
        assert built == want, argv


def test_verify_checks_the_sphere_report_decompose_prints(capsys, monkeypatch):
    real = decomp._visible_spheres

    def skewed(e, max_dim, name):
        # one more S^4 in the path fibre report, the only report of a path
        ms = real(e, max_dim, name)
        return SphereMultiset({**ms.counts, 4: ms.counts[4] + 1}, ms.max_dim, ms.truncated)

    monkeypatch.setattr(decomp, "_visible_spheres", skewed)
    code, out, _ = _run(capsys, "verify", "porter-hochster", "path", "3")
    assert code == 1
    assert json.loads(out)["checks"][0]["first_discrepancy"] == {
        "dimension": 4, "engine": 3, "oracle": 2,
    }


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
    ("verify", "porter-hochster", "path", "3"),
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
    assert not decompose & {"polyloop.homology", "polyloop.complexes", "multiprocessing"}
    # nor does spacealg, alone or after the command line as the benchmark's
    # api jobs import it
    for code in ("import sys, polyloop.spacealg", "import sys, polyloop.cli, polyloop.spacealg"):
        loaded = _modules_after(code)
        assert "polyloop.spacealg" in loaded and "polyloop.complexes" not in loaded
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


# --- the process entry point ------------------------------------------------

# `python -m polyloop` ends through cli.run, without interpreter teardown; the
# reference is main with the interpreter's normal shutdown after it
_REFERENCE = "import sys, polyloop.cli\nsys.exit(polyloop.cli.main(sys.argv[1:]))\n"
# an exit handler, then the entry point as `python -m polyloop` reaches it
_HANDLER = "import atexit, sys\natexit.register(print, 'exit handler', file=sys.stderr)\n"
_RUN_MODULE = "import runpy\nrunpy.run_module('polyloop', run_name='__main__')\n"

# each argv with the exit code it gives; {dir} is the side's own directory,
# and the two hochster runs are the cold and the warm lookup of one cache
_DIFFERENTIAL = [
    (0, ("build", "points", "1")),
    (0, ("build", "cycle", "5", "--format", "text")),
    (0, ("decompose", "planar-book", "3", "2", "--format", "text")),
    (0, ("decompose", "path", "4", "--out", "{dir}/path.json")),
    (0, ("verify", "all", "path", "6")),
    (0, ("verify", "koszul", "planar-book", "3", "2", "--format", "text")),
    (0, ("hochster", "cycle", "5", "--cache-dir", "{dir}/cache")),
    (0, ("hochster", "cycle", "5", "--cache-dir", "{dir}/cache", "--format", "text")),
    (0, ("series", "koszul", "path", "3")),
    (0, ("series", "hilbert", "simplex", "2", "--format", "text")),
    (2, ("verify", "porter-hochster", "planar-book", "2", "2")),
    (3, ("decompose", "path", "5", "--max-dim", "2")),
    (4, ("series", "koszul", "cycle", "3")),
    (0, ("verify", "porter-hochster", "path", "21")),
    (5, ("hochster", "path", "21")),
    (2, ("build", "no-such-family")),
    (0, ("--help",)),
]


def _both(argvs, env, stdout=subprocess.PIPE, run=("-m", "polyloop"), ref=("-c", _REFERENCE)):
    """(exit code, stdout, stderr) of the entry point and of the reference,
    run side by side on their own argv."""
    procs = [subprocess.Popen([sys.executable, *cmd, *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env)
             for cmd, argv in zip((run, ref), argvs)]
    outs = [p.communicate() for p in procs]
    return [(p.returncode, *out) for p, out in zip(procs, outs)]


def _files(root) -> dict:
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def test_entry_point_matches_main_with_normal_shutdown(tmp_path):
    # stdout buffered, as on a pipe, so output left unflushed would be lost
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": ""}
    dirs = (tmp_path / "run", tmp_path / "ref")
    for d in dirs:
        d.mkdir()
    for code, argv in _DIFFERENTIAL:
        argvs = [[a.format(dir=d) for a in argv] for d in dirs]
        got, want = _both(argvs, env)
        assert got == want, argv
        assert want[0] == code, argv
        assert _files(dirs[0]) == _files(dirs[1]), argv
    assert {f.split("/")[0] for f in _files(dirs[0])} == {"path.json", "cache"}


def test_entry_point_runs_exit_handlers_once_and_skips_teardown():
    # a global of __main__ whose finalizer speaks only at module teardown
    teardown = ("class T:\n    def __del__(self):\n        print('teardown', file=sys.stderr)\n"
                "t = T()\n")
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": ""}
    argv = ["build", "points", "1"]
    got, want = _both([argv, argv], env, run=("-c", _HANDLER + teardown + _RUN_MODULE),
                      ref=("-c", _HANDLER + teardown + _REFERENCE))
    assert got[:2] == want[:2] == (0, b'{"facets":[[0]],"m":1}\n')
    assert got[2] == b"exit handler\n"
    assert want[2] == b"exit handler\nteardown\n"


@pytest.mark.parametrize("unbuffered, code", [("1", 2), ("", 120)])
def test_entry_point_on_a_closed_pipe_fails_as_main_does(unbuffered, code):
    # unbuffered, main's own write fails; buffered, the flush at exit does,
    # which the interpreter reports with exit code 120
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    r, w = os.pipe()
    os.close(r)
    try:
        argv = ["build", "points", "1"]
        got, want = _both([argv, argv], env, stdout=w, run=("-c", _HANDLER + _RUN_MODULE),
                          ref=("-c", _HANDLER + _REFERENCE))
    finally:
        os.close(w)
    assert got == want
    assert got[0] == code and got[2].count(b"exit handler") == 1
    assert b"Broken pipe" in got[2]


def test_console_script_is_the_entry_point():
    pyproject = os.path.join(os.path.dirname(SRC), "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        assert 'polyloop = "polyloop.cli:run"\n' in fh.read()
