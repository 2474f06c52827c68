"""Benchmark workloads: job classes, seeded job lists and output checks.

Each workload is a list of job classes. A class has a parameter grid, in
order of cost, and a fixed number of jobs per pass. The seed picks one grid
point in each of `count` equal strata of the grid (so a class whose count
equals its grid size runs every point once), writes the generated inputs,
and shuffles the order of the jobs. Every seed therefore does similar work.

Each workload also runs a few tiny "cross-layer" jobs in the layers its main
classes bypass, so that every per-layer metric is measured on every workload;
they take a few percent of a pass.

Every job has a key that names its grid point independently of the seed and
of temporary paths; expected.json maps each key of every grid to the exit
code and stdout sha256 recorded from the program (see record.py). Some jobs
also carry an independent closed-form check of their output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[bytes], "str | None"]


@dataclass
class Job:
    key: str
    argv: tuple[str, ...]
    api: bool = False  # run through child.py api, not the CLI
    exit: int = 0  # documented exit code
    out: str | None = None  # output file written by --out, checked instead of stdout
    check: Check | None = None
    cache: str | None = None  # "cold" or "warm" for hochster --cache-dir pairs


@dataclass
class Ctx:
    """Where a job list puts its files. Inputs live for the whole run; the
    pass directory is emptied before every pass, so each pass starts with
    fresh cache directories and output files."""

    inputs: Path
    pass_dir: Path
    rng: random.Random
    units: int = 0

    def fresh(self, stem: str) -> str:
        self.units += 1
        return str(self.pass_dir / f"{stem}{self.units}")

    def write(self, stem: str, text: str) -> str:
        self.units += 1
        path = self.inputs / f"{stem}{self.units}"
        path.write_text(text, encoding="utf-8")
        return str(path)


@dataclass
class JobClass:
    name: str
    count: int
    grid: list
    make: Callable[[object, Ctx], list[Job]]  # one unit: jobs that run back to back


@dataclass
class Workload:
    name: str
    why: str
    classes: list[JobClass]


# ---------------------------------------------------------------- closed forms


def porter_counts(l: int) -> dict[int, int]:
    """Porter's wedge for the path with l edges: (k-1)*C(l, k) spheres of
    dimension k+1, for k = 2..l."""
    return {k + 1: (k - 1) * math.comb(l, k) for k in range(2, l + 1)}


def _json(out: bytes):
    return json.loads(out.decode("utf-8"))


def check_decompose_path(l: int, max_dim: int = 16) -> Check:
    def check(out: bytes):
        got = {int(d): c for d, c in _json(out)["spheres"]["ZPl"].items()}
        want = {d: c for d, c in porter_counts(l).items() if d <= max_dim}
        return None if got == want else f"path fibre spheres {got} != Porter {want}"

    return check


def check_hochster_path(l: int) -> Check:
    def check(out: bytes):
        got = {int(d): c for d, c in _json(out)["betti"].items()}
        want = {0: 1, **porter_counts(l)}
        return None if got == want else f"Betti table {got} != Porter {want}"

    return check


def check_series(n: int, coeff: Callable[[int], int], what: str) -> Check:
    def check(out: bytes):
        obj = _json(out)
        want = [coeff(k) for k in range(n + 1)]
        if obj["N"] != n or obj["coeffs"] != want:
            return f"series {obj} != {what} through degree {n}"
        return None

    return check


def fibonacci(k: int) -> int:
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def check_verify_pass(out: bytes):
    obj = _json(out)
    return None if obj["status"] == "pass" else f"verification failed: {obj}"


def check_facets(facets: list[tuple[int, ...]], m: int) -> Check:
    want = {"facets": sorted(sorted(f) for f in facets), "m": m}

    def check(out: bytes):
        got = _json(out)
        return None if got == want else f"complex {got} != {want}"

    return check


def check_empty(out: bytes):
    return None if out == b"" else "a refused job wrote output"


# ------------------------------------------------------------ generated inputs


def base_facets(kind: str, l: int) -> tuple[int, list[tuple[int, ...]]]:
    """Ground size and maximal faces of a small complex, built here
    independently of the program."""
    if kind == "path":
        return l + 1, [(i, i + 1) for i in range(l)]
    if kind == "cycle":
        return l, [(i, i + 1) for i in range(l - 1)] + [(0, l - 1)]
    # cone over the l-cycle, apex l: a 2-dimensional disc
    return l + 1, [(i, (i + 1) % l, l) for i in range(l)]


def complex_json(m: int, facets: list[tuple[int, ...]], rng: random.Random) -> dict:
    """The complex written the way a user might: facets and their vertices in
    random order, with some redundant faces of the facets mixed in."""
    listed = [list(f) for f in facets]
    for f in facets:
        if rng.random() < 0.4:
            listed.append(rng.sample(list(f), rng.randint(1, len(f) - 1)))
    for f in listed:
        rng.shuffle(f)
    rng.shuffle(listed)
    return {"facets": listed, "m": m} if rng.random() < 0.5 else {"m": m, "facets": listed}


def porter_sexpr(l: int, rng: random.Random) -> str:
    """Porter's wedge for the path with l edges as an s-expression whose
    summands are in random order."""
    parts = [f"(sphere {d})" for d, c in porter_counts(l).items() for _ in range(c)]
    rng.shuffle(parts)
    return "(wedge " + " ".join(parts) + ")"


# ----------------------------------------------------------------- job makers


def cli(*argv, **kw) -> Job:
    argv = tuple(str(a) for a in argv)
    return Job(key=" ".join(argv), argv=argv, **kw)


def _decompose_path(l, ctx):
    return [cli("decompose", "path", l, check=check_decompose_path(l))]


def _decompose_book(lp, ctx):
    return [cli("decompose", "planar-book", *lp)]


def _verify_koszul_planar(lp, ctx):
    return [cli("verify", "koszul", "planar-book", *lp, check=check_verify_pass)]


def _hm(dims_cutoff, ctx):
    dims, cutoff = dims_cutoff
    argv = ("hm", ",".join(map(str, dims)), str(cutoff))
    if dims == (2, 2, 2):
        check = check_series(cutoff - 1, lambda k: 3**k, "1/(1-3t)")
    else:
        check = check_series(cutoff - 1, fibonacci, "1/(1-t-t^2)")
    return [Job(key="api " + " ".join(argv), argv=argv, api=True, check=check)]


def _readback(l, ctx):
    path = ctx.write("porter", porter_sexpr(l, ctx.rng))
    n = l + 2
    counts = porter_counts(l)
    check = check_series(n, lambda k: 1 if k == 0 else counts.get(k, 0), f"Porter wedge l={l}")
    return [Job(key=f"api readback porter {l} {n}", argv=("readback", path, str(n)), api=True,
                check=check)]


def _hochster(fam, ctx):
    job = cli("hochster", *fam)
    if fam[0] == "path":
        job.check = check_hochster_path(fam[1])
    return [job]


def _verify_porter_hochster(l, ctx):
    return [cli("verify", "porter-hochster", "path", l, "--jobs", 2, check=check_verify_pass)]


def _verify_all_path(l, ctx):
    return [cli("verify", "all", "path", l, check=check_verify_pass)]


def _verify_koszul_book(np_, ctx):
    n, p = np_
    return [cli("verify", "koszul", "book", n, 2 * n, p, check=check_verify_pass)]


def _series(kind):
    def make(fam_n, ctx):
        fam, n = fam_n
        return [cli("series", kind, *fam, "--N", n)]

    return make


def _build(fam, ctx):
    if fam[0] == "file":
        m, facets = base_facets(fam[1], fam[2])
        path = ctx.write("complex", json.dumps(complex_json(m, facets, ctx.rng)))
        return [Job(key=f"build file {fam[1]} {fam[2]}", argv=("build", "file", path),
                    check=check_facets(facets, m))]
    if fam[0] == "glue-spec-file":
        n, l, p = fam[1:]
        m, facets = base_facets("cycle", l)
        sub = list(range(n + 1))
        spec = {
            "base": complex_json(m, facets, ctx.rng),
            "sub_a": ctx.rng.sample(sub, len(sub)),
            "sub_b": ctx.rng.sample(sub, len(sub)),
            "copies": p,
        }
        path = ctx.write("glue", json.dumps(spec))
        return [Job(key=f"build glue-spec-file book {n} {l} {p}",
                    argv=("build", "glue-spec-file", path))]
    job = cli("build", *fam)
    if fam[0] in ("path", "cycle"):
        m, facets = base_facets(*fam)
        job.check = check_facets(facets, m)
    return [job]


def _cache_pair(fam, ctx):
    cache = ctx.fresh("cache")
    key = " ".join(map(str, ("hochster", *fam, "--cache-dir")))
    argv = tuple(map(str, ("hochster", *fam, "--cache-dir", cache)))
    return [Job(key=key, argv=argv, cache="cold"), Job(key=key, argv=argv, cache="warm")]


def _out_or_text(spec, ctx):
    *argv, mode = spec
    job = cli(*argv, *(["--format", "text"] if "text" in mode else []))
    if "out" in mode:
        job.out = ctx.fresh("out")
        job.key += " --out"
        job.argv += ("--out", job.out)
    return [job]


def _cross_layer(spec, ctx):
    make, param = spec
    return make(param, ctx)


def _refusal(spec, ctx):
    *argv, code = spec
    return [cli(*argv, exit=code, check=check_empty)]


# ------------------------------------------------------------------ workloads

_PLANAR = [(l, p) for l in (5, 6, 7) for p in (2, 3, 4)]
_SMALL_PLANAR = [(l, p) for l in (2, 3, 4) for p in (2, 3)]
_NS = list(range(256, 1025, 64))
# hochster --cache-dir inputs in order of ground set size m = 6..12
_CACHED = [("cycle", 6), ("path", 6), ("cycle", 7), ("path", 7), ("cycle", 8), ("path", 8),
           ("cycle", 9), ("path", 9), ("cycle", 10), ("planar-book", 3, 3), ("path", 10),
           ("cycle", 11), ("planar-book", 4, 2), ("path", 11), ("cycle", 12)]

SERIES_FAMILIES = {
    "path": [("path", l) for l in range(6, 11)],
    "cycle": [("cycle", l) for l in range(6, 11)],
    "planar-book": [("planar-book", l, p) for l, p in ((3, 2), (3, 3), (4, 2), (4, 3))],
}


def _series_classes() -> list[JobClass]:
    out = []
    for kind in ("koszul", "hilbert"):
        for fam, insts in SERIES_FAMILIES.items():
            grid = [(inst, n) for n in _NS for inst in insts]  # ordered by N, the cost
            out.append(JobClass(f"series-{kind}-{fam}", 4, grid, _series(kind)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic",
            "decompose path and planar-book, verify koszul, Hilton-Milnor and s-expression "
            "read-back jobs: time goes to spacealg.normalize, with no Hochster work",
            [
                JobClass("decompose-path", 4, list(range(13, 17)), _decompose_path),
                JobClass("decompose-planar-book", 6, _PLANAR, _decompose_book),
                JobClass("verify-koszul-planar-book", 2, [(6, 2), (7, 2)], _verify_koszul_planar),
                JobClass("hilton-milnor-s2s2s2", 3, [((2, 2, 2), c) for c in (12, 13, 14)], _hm),
                JobClass("hilton-milnor-s2s3", 7, [((2, 3), c) for c in range(24, 31)], _hm),
                JobClass("readback-porter", 4, list(range(12, 16)), _readback),
                JobClass("cross-layer", 2,
                         [(_hochster, ("path", 5)), (_hochster, ("path", 9, "--jobs", 2))],
                         _cross_layer),
            ],
        ),
        Workload(
            "oracle",
            "hochster path, cycle and planar-book, verify porter-hochster --jobs 2: time goes "
            "to full subcomplexes in the Hochster oracle, little to spacealg",
            [
                JobClass("hochster-path", 3, [("path", l) for l in (12, 13, 14)], _hochster),
                JobClass("hochster-cycle", 4, [("cycle", l) for l in (12, 13, 14, 15)], _hochster),
                JobClass("hochster-planar-book", 3,
                         [("planar-book", 3, 4), ("planar-book", 5, 2), ("planar-book", 4, 3)],
                         _hochster),
                JobClass("verify-porter-hochster", 3, [12, 13, 14], _verify_porter_hochster),
                JobClass("cross-layer", 5,
                         [(_decompose_path, 4), (_decompose_book, (2, 2)),
                          (_series("koszul"), (("path", 4), 16)), (_hm, ((2, 2, 2), 5)),
                          (_readback, 4)],
                         _cross_layer),
            ],
        ),
        Workload(
            "verify-mix",
            "100+ short jobs (verify, series N 256-1024, build of every family, hochster "
            "cache pairs, --out and text, refusals): start-up, emit, cache and series dominate",
            [
                JobClass("verify-all-path", 18, list(range(2, 11)), _verify_all_path),
                JobClass("verify-koszul-planar-book", 12, _SMALL_PLANAR, _verify_koszul_planar),
                JobClass("verify-koszul-book", 4, [(2, 2), (2, 3), (3, 2), (3, 3)],
                         _verify_koszul_book),
                *_series_classes(),
                JobClass("build-path", 3, [("path", l) for l in range(1, 13)], _build),
                JobClass("build-cycle", 3, [("cycle", l) for l in range(3, 13)], _build),
                JobClass("build-points", 3, [("points", n) for n in range(1, 13)], _build),
                JobClass("build-simplex", 3, [("simplex", k) for k in range(0, 7)], _build),
                JobClass("build-book", 3,
                         [("book", n, l, p) for l in (4, 5, 6) for n in range(1, l - 1)
                          for p in (2, 3)], _build),
                JobClass("build-planar-book", 3, [("planar-book", l, p) for l, p in _SMALL_PLANAR],
                         _build),
                JobClass("build-file", 3,
                         [("file", k, l) for k, ls in (("path", range(3, 9)),
                                                       ("cycle", range(4, 9)),
                                                       ("cone", range(4, 7))) for l in ls],
                         _build),
                JobClass("build-glue-spec-file", 3,
                         [("glue-spec-file", n, l, p) for l in (4, 5, 6, 7)
                          for n in range(1, l - 1) for p in (2, 3)], _build),
                JobClass("hochster-cache-pair", 6, _CACHED, _cache_pair),
                JobClass("out-or-text", 8,
                         [("series", "koszul", "cycle", l, "--N", 300, "out") for l in (5, 6, 7)]
                         + [("verify", "koszul", "planar-book", l, p, "text")
                            for l, p in _SMALL_PLANAR]
                         + [("build", "planar-book", l, p, "text out") for l, p in _SMALL_PLANAR]
                         + [("hochster", "path", l, "text") for l in (6, 7, 8)],
                         _out_or_text),
                JobClass("refusal", 6,
                         [("verify", "koszul", "book", 2, 5, 2, 2)]
                         + [("decompose", "path", l, "--max-dim", 2, 3) for l in range(3, 9)]
                         + [("hochster", "path", l, 5) for l in range(21, 27)],
                         _refusal),
                JobClass("cross-layer", 4,
                         [(_decompose_path, 4), (_hochster, ("path", 9, "--jobs", 2)),
                          (_hm, ((2, 2, 2), 5)), (_readback, 4)],
                         _cross_layer),
            ],
        ),
    )
}

PROBE = cli("build", "points", 1, check=check_facets([(0,)], 1))


def stratified(grid: list, count: int, rng: random.Random) -> list:
    """One grid point from each of `count` equal strata of the grid."""
    n = len(grid)
    return [grid[rng.randrange(i * n // count, max(i * n // count + 1, (i + 1) * n // count))]
            for i in range(count)]


def job_list(workload: str, seed: int, inputs: Path, pass_dir: Path, tiny: bool = False) -> list[Job]:
    """The seeded job list of one pass. With tiny, each class runs its
    cheapest grid point once."""
    rng = random.Random(f"{workload}:{seed}")
    ctx = Ctx(inputs, pass_dir, rng)
    units = []
    for jc in WORKLOADS[workload].classes:
        params = jc.grid[:1] if tiny else stratified(jc.grid, jc.count, rng)
        units.extend(jc.make(p, ctx) for p in params)
    rng.shuffle(units)
    return [job for unit in units for job in unit]


def grid_jobs(workload: str, inputs: Path, pass_dir: Path) -> list[list[Job]]:
    """Every grid point of every class of the workload, one unit each."""
    ctx = Ctx(inputs, pass_dir, random.Random(0))
    return [jc.make(p, ctx) for jc in WORKLOADS[workload].classes for p in jc.grid]
