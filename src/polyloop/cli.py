"""Command line driver.

Subcommands: build, decompose, verify, hochster, series. All output is JSON
by default (sorted keys, fixed separators, so identical inputs give byte
identical bytes) or a plain text rendering with --format text. Exit codes:

  0  success / verification passed
  1  a verification check found a mismatch
  2  invalid parameters or malformed input
  3  a sphere enumeration ceiling was too small to express a needed factor
  4  an oracle precondition failed (non-flag complex for the Koszul oracle)
  5  the Hochster subset enumeration cap was exceeded
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import complexes
from .errors import (
    CeilingExceededError,
    GroundSizeLimitError,
    InvalidParameters,
    NotFlagComplexError,
    PolyloopError,
)

# family -> (its builder in complexes, its parameter names, its builder in
# decomp or None); decompose and verify take the families with a decomp
# builder, in this order. The two file families read one JSON file. Builders
# are looked up by name at call time, so a wrapper bound in their place on the
# module (perfbench's tracer) is called.
_FAMILIES = {
    "path": ("path_graph", ("l",), "path_decompose"),
    "planar-book": ("planar_book", ("l", "p"), "dj_book_decompose"),
    "book": ("book_graph", ("n", "l", "p"), "book_decompose_symbolic"),
    "cycle": ("cycle_graph", ("l",), None),
    "points": ("disjoint_points", ("n",), None),
    "simplex": ("simplex", ("k",), None),
    "glue-spec-file": ("glue", ("file",), None),
    "file": ("from_json_obj", ("file",), None),
}
_DECOMPOSABLE = tuple(f for f, (_, _, build) in _FAMILIES.items() if build)


def _family_params(family: str, params: list[str]) -> dict:
    """The parameters of a family by name after its one arity check: a path
    for the file families, integers for the others."""
    names = _FAMILIES[family][1]
    if len(params) != len(names):
        raise InvalidParameters(f"family {family!r} takes {len(names)} parameter(s)")
    if names == ("file",):
        return {"file": params[0]}
    try:
        return dict(zip(names, map(int, params)))
    except ValueError as exc:
        raise InvalidParameters(f"family {family!r} takes integer parameters") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameters(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameters(f"{path} is not valid JSON: {exc}") from exc


def _glue_spec_from_obj(obj: dict) -> complexes.GluingSpec:
    if not isinstance(obj, dict):
        raise InvalidParameters("glue spec must be a JSON object")
    try:
        base = complexes.from_json_obj(obj["base"])
        sub_a = complexes.json_labels(obj["sub_a"], "sub_a")
        sub_b = complexes.json_labels(obj["sub_b"], "sub_b")
        copies = obj["copies"]
    except KeyError as exc:
        raise InvalidParameters(f"glue spec is missing key {exc}") from exc
    if type(copies) is not int:
        raise InvalidParameters("copies must be an integer")
    psi = complexes.json_labels(obj.get("psi", list(range(base.ground_size))), "psi")
    phi = obj.get("phi", [])
    if not isinstance(phi, list):
        raise InvalidParameters("phi must be a list of relabellings")
    phi = tuple(complexes.json_labels(p, "each phi entry") for p in phi)
    return complexes.GluingSpec(base, sub_a, sub_b, psi, copies, phi)


def complex_from_family(family: str, params: list[str]) -> complexes.SimplicialComplex:
    vals = list(_family_params(family, params).values())
    build = getattr(complexes, _FAMILIES[family][0])
    if family == "glue-spec-file":
        return build(_glue_spec_from_obj(_load_json(vals[0])))
    if family == "file":
        return build(_load_json(vals[0]))
    return build(*vals)


def _text_lines(obj: dict | list, indent: int = 0) -> list[str]:
    """Lines of a dict ("key: value", keys sorted) or a list ("- value"); a
    value holding nested containers goes on the lines below, indented."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [(f"{k}:", obj[k]) for k in sorted(obj)]
    else:
        items = [("-", v) for v in obj]
    lines: list[str] = []
    for head, v in items:
        if isinstance(v, (dict, list)) and v and not _is_flat(v):
            lines.append(f"{pad}{head}")
            lines.extend(_text_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {json.dumps(v, sort_keys=True)}")
    return lines


def _is_flat(v: dict | list) -> bool:
    values = v.values() if isinstance(v, dict) else v
    return all(not isinstance(x, (dict, list)) for x in values)


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    path never holds a partial file; the temporary file is removed on any
    failure."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".polyloop-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(obj: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "\n".join(_text_lines(obj)) + "\n"
    if getattr(args, "out", None):
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    K = complex_from_family(args.family, args.params)
    _emit(K.to_json_obj(), args)
    return 0


def cmd_decompose(args) -> int:
    from . import decomp

    params = _family_params(args.family, args.params)
    build = getattr(decomp, _FAMILIES[args.family][2])
    # the symbolic book has no sphere report, so it takes no ceiling
    ceiling = {} if args.family == "book" else {"max_dim": args.max_dim}
    _emit(build(*params.values(), n=args.N, **ceiling).to_json_obj(), args)
    return 0


def _check(name: str, key: str, engine: dict[int, int], oracle: dict[int, int]) -> dict:
    """Pass, or fail at the first key (a degree or a dimension) where the
    engine's count differs from the oracle's; a missing key counts 0."""
    for k in sorted(engine.keys() | oracle.keys()):
        e, o = engine.get(k, 0), oracle.get(k, 0)
        if e != o:
            return {
                "name": name,
                "status": "fail",
                "first_discrepancy": {key: k, "engine": e, "oracle": o},
            }
    return {"name": name, "status": "pass"}


def cmd_verify(args) -> int:
    from . import decomp, series

    params = _family_params(args.family, args.params)
    if args.family != "path" and args.mode == "porter-hochster":
        raise InvalidParameters("porter-hochster verification is defined for paths only")
    K = complex_from_family(args.family, args.params)
    l, p = params["l"], params.get("p")
    if args.family == "book":
        if l != 2 * params["n"]:
            # a non-flag book is refused by the oracle (exit 4) before the engine
            series.require_flag(K)
            raise InvalidParameters(
                "no series engine for books with l != 2n; only the planar family is decomposed"
            )
        l = params["n"]  # the book is the planar book with p+1 pages of length n
    checks: list[dict] = []
    if args.family == "path" and args.mode != "koszul":
        from . import homology
        from .spacealg import sphere_multiset_of

        # the oracle refuses m = l + 1 > 20 (exit 5) before the engine builds the 2^l wedge
        oracle_ms = homology.zk_sphere_multiset(K, jobs=args.jobs)
        engine_ms = sphere_multiset_of(decomp.path_fibre_reduce(l, circles=True), max(l + 2, 3))
        checks.append(_check("porter-hochster", "dimension", engine_ms.counts, oracle_ms.counts))
    if args.mode != "porter-hochster":
        if args.family == "path":
            # max_dim only sizes the sphere report, which verify does not read
            eng = decomp.path_decompose(l, n=args.N, max_dim=l + 2).series
        else:
            eng = decomp.dj_book_decompose(l, p, n=args.N).series
        orc = series.koszul_loop_series(K, args.N)
        checks.append(_check("koszul", "degree", dict(enumerate(eng.coeffs)),
                             dict(enumerate(orc.coeffs))))
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    _emit(
        {
            "mode": args.mode,
            "family": args.family,
            "params": params,
            "checks": checks,
            "status": status,
        },
        args,
    )
    return 0 if status == "pass" else 1


# Part of every cache key; bump it when the stored table format changes.
_CACHE_SCHEMA = 1


def _cached_table(path: str, m: int) -> dict | None:
    """The Betti table stored at path, or None if it is missing, unreadable
    or not the well-formed table, in canonical form, for a ground set of size m."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(obj, dict) or set(obj) != {"betti", "m"} or type(obj["m"]) is not int:
        return None
    betti = obj["betti"]
    if obj["m"] != m or not isinstance(betti, dict) or betti.get("0") != 1:
        return None
    # a key such as "03" is a miss: a fresh run would print "3"
    if not all(
        k.isascii() and k.isdigit() and str(int(k)) == k and type(v) is int and v > 0
        for k, v in betti.items()
    ):
        return None
    return obj


def cmd_hochster(args) -> int:
    from . import homology

    K = complex_from_family(args.family, args.params)
    cache_path = None
    if args.cache_dir:
        # refuse before the lookup, so a cached answer cannot change the exit code
        homology.require_enumerable(K, args.ceiling)
        import hashlib

        keyed = {"complex": K.to_json_obj(), "schema": _CACHE_SCHEMA}
        canonical = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(canonical.encode()).hexdigest()
        cache_path = os.path.join(args.cache_dir, f"hochster-{key}.json")
        cached = _cached_table(cache_path, K.ground_size)
        if cached is not None:
            _emit(cached, args)
            return 0
    table = homology.hochster_zk_betti(K, ceiling=args.ceiling, jobs=args.jobs)
    obj = table.to_json_obj()
    if cache_path is not None:
        os.makedirs(args.cache_dir, exist_ok=True)
        _write_atomic(cache_path, json.dumps(obj, sort_keys=True, separators=(",", ":")))
    _emit(obj, args)
    return 0


def cmd_series(args) -> int:
    from . import series

    K = complex_from_family(args.family, args.params)
    oracle = series.hilbert_sr if args.kind == "hilbert" else series.koszul_loop_series
    _emit(oracle(K, args.N).to_json_obj(), args)
    return 0


def _add_common(p: argparse.ArgumentParser, families, *, n=False, jobs=False) -> None:
    p.add_argument("family", choices=families)
    p.add_argument("params", nargs="*")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write output atomically to this file instead of stdout")
    if n:
        p.add_argument("--N", type=int, default=16, help="series truncation order")
    if jobs:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for subset enumeration (0 = all cores); used only"
                       " by complexes of dimension >= 2, so graphs and verify ignore it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyloop",
        description="loop space decompositions of polyhedral products, with exact verification",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a complex and print it")
    _add_common(p, sorted(_FAMILIES))
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decompose", help="decompose loops on a polyhedral product")
    _add_common(p, _DECOMPOSABLE, n=True)
    p.add_argument("--max-dim", dest="max_dim", type=int, default=16,
                   help="sphere enumeration ceiling")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check the engine against an independent oracle")
    p.add_argument("mode", choices=("porter-hochster", "koszul", "all"))
    _add_common(p, _DECOMPOSABLE, n=True, jobs=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hochster", help="Betti table of a moment-angle complex")
    p.add_argument("--ceiling", type=int, default=20, help="ground set size cap")
    p.add_argument("--cache-dir", dest="cache_dir", help="content-addressed result cache")
    _add_common(p, sorted(_FAMILIES), jobs=True)
    p.set_defaults(func=cmd_hochster)

    p = sub.add_parser("series", help="Hilbert or Koszul series of a complex")
    p.add_argument("kind", choices=("hilbert", "koszul"))
    _add_common(p, sorted(_FAMILIES), n=True)
    p.set_defaults(func=cmd_series)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", None) == 0:
        args.jobs = None
    try:
        return args.func(args)
    except (PolyloopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = ((GroundSizeLimitError, 5), (NotFlagComplexError, 4), (CeilingExceededError, 3))
        return next((code for cls, code in codes if isinstance(exc, cls)), 2)


if __name__ == "__main__":
    raise SystemExit(main())
