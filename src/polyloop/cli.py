"""Command line driver.

Subcommands: build, decompose, verify, hochster, series. All output is JSON
by default (sorted keys, fixed separators, so identical inputs give byte
identical bytes) or a plain text rendering with --format text. Exit codes:

  0  success / verification passed
  1  a verification check found a mismatch
  2  invalid parameters or malformed input
  3  a sphere enumeration ceiling was too small to express a needed factor
  4  an oracle precondition failed (non-flag complex for the Koszul oracle)
  5  the Hochster ground set was larger than the safety cap
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys

from .errors import InvalidParameters, PolyloopError

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
    "glue-spec-file": ("glue_from_json_obj", ("file",), None),
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


def complex_from_family(family: str, params: list[str]) -> complexes.SimplicialComplex:
    # imported here, where a complex is built: decompose never loads it
    from . import complexes

    vals = [_load_json(v) if k == "file" else v for k, v in _family_params(family, params).items()]
    return getattr(complexes, _FAMILIES[family][0])(*vals)


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


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of chunks to path through a temporary file in the
    same directory, so path never holds a partial file; the temporary file
    is removed on any failure."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".polyloop-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A term that _emit streams stands in its document as this string, which
# json.dumps writes as the six characters \u0000.
_HOLE = "\0"


def _escape(s: str) -> str:
    """s as json.dumps writes it inside a string: escaped, ASCII only."""
    return json.encoder.encode_basestring_ascii(s)[1:-1]


def _emit(obj: dict, args, terms=()) -> None:
    """Write obj as JSON or as text. The k-th _HOLE string in obj, in
    document order, is filled by the strings of terms[k]: pieces of a JSON
    string, already escaped, as spacealg.sexpr_pieces gives them. JSON
    escapes character by character, so the bytes are those of obj with each
    term's whole string in place of its hole."""
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "\n".join(_text_lines(obj)) + "\n"
    chunks = _filled(text.split(_escape(_HOLE)), terms) if terms else [text]
    if getattr(args, "out", None):
        _write_atomic(args.out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _filled(parts: list[str], terms):
    yield parts[0]
    for term, part in zip(terms, parts[1:]):
        yield from term
        yield part


def cmd_build(args) -> int:
    K = complex_from_family(args.family, args.params)
    _emit(K.to_json_obj(), args)
    return 0


def cmd_decompose(args) -> int:
    from . import decomp
    from .spacealg import sexpr_pieces

    params = _family_params(args.family, args.params)
    build = getattr(decomp, _FAMILIES[args.family][2])
    # the symbolic book has no sphere report, so it takes no ceiling
    ceiling = {} if args.family == "book" else {"max_dim": args.max_dim}
    result = build(*params.values(), n=args.N, **ceiling)
    # each factor's term is written run by run in its hole, never whole
    terms = [sexpr_pieces(e, _escape) for _, e in result.factors]
    _emit(result.to_json_obj(lambda e: _HOLE), args, terms)
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
    porter = args.family == "path" and args.mode != "koszul"
    # what decompose prints, built in every mode so every mode refuses alike; its
    # path fibre report is whole at ceiling l + 2, as the wedge's top sphere is S^(l+1)
    res = decomp._spine(l, p, args.N, l + 2 if porter else None)
    checks: list[dict] = []
    if porter:
        from . import homology

        # a path has about m^2/2 connected sets, so the oracle is polynomial in m: no cap
        orc = homology.zk_sphere_multiset(K, ceiling=K.ground_size).counts
        checks.append(_check("porter-hochster", "dimension", res.spheres["ZPl"].counts, orc))
    if args.mode != "porter-hochster":
        orc = series.koszul_loop_series(K, args.N).coeffs
        checks.append(_check("koszul", "degree", dict(enumerate(res.series.coeffs)),
                             dict(enumerate(orc))))
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
    table = homology.hochster_zk_betti(K, ceiling=args.ceiling)
    obj = table.to_json_obj()
    if cache_path is not None:
        os.makedirs(args.cache_dir, exist_ok=True)
        _write_atomic(cache_path, [json.dumps(obj, sort_keys=True, separators=(",", ":"))])
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
                       help="accepted and ignored: the Hochster oracle runs in one process")


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
    try:
        return args.func(args)
    except (PolyloopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def run() -> None:
    """The process entry point: main, the exit handlers, a flush of stdout
    and stderr, then os._exit, which skips only module teardown and the
    final collection. A failed flush is left to the interpreter's shutdown."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
