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

_FAMILY_ARITY = {
    "path": 1,
    "cycle": 1,
    "points": 1,
    "simplex": 1,
    "book": 3,
    "planar-book": 2,
    "glue-spec-file": 1,
    "file": 1,
}


def _int_params(family: str, params: list[str]) -> list[int]:
    try:
        return [int(p) for p in params]
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
    arity = _FAMILY_ARITY.get(family)
    if arity is None:
        raise InvalidParameters(f"unknown family {family!r}")
    if len(params) != arity:
        raise InvalidParameters(f"family {family!r} takes {arity} parameter(s)")
    if family == "glue-spec-file":
        return complexes.glue(_glue_spec_from_obj(_load_json(params[0])))
    if family == "file":
        return complexes.from_json_obj(_load_json(params[0]))
    vals = _int_params(family, params)
    if family == "path":
        return complexes.path_graph(vals[0])
    if family == "cycle":
        return complexes.cycle_graph(vals[0])
    if family == "points":
        return complexes.disjoint_points(vals[0])
    if family == "simplex":
        return complexes.simplex(vals[0])
    if family == "book":
        return complexes.book_graph(*vals)
    return complexes.planar_book(*vals)


def _text_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v, sort_keys=True)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v, sort_keys=True)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    if isinstance(v, dict):
        return all(not isinstance(x, (dict, list)) for x in v.values())
    return True


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

    vals = _int_params(args.family, args.params)
    if args.family == "path" and len(vals) == 1:
        result = decomp.path_decompose(vals[0], n=args.N, max_dim=args.max_dim)
    elif args.family == "planar-book" and len(vals) == 2:
        result = decomp.dj_book_decompose(vals[0], vals[1], n=args.N, max_dim=args.max_dim)
    elif args.family == "book" and len(vals) == 3:
        result = decomp.book_decompose_symbolic(vals[0], vals[1], vals[2], n=args.N)
    else:
        raise InvalidParameters(f"no decomposition for family {args.family!r} with {args.params}")
    _emit(result.to_json_obj(), args)
    return 0


def _series_check(name: str, engine: "series.TruncSeries", oracle: "series.TruncSeries") -> dict:
    for k in range(min(engine.n, oracle.n) + 1):
        if engine[k] != oracle[k]:
            return {
                "name": name,
                "status": "fail",
                "first_discrepancy": {"degree": k, "engine": engine[k], "oracle": oracle[k]},
            }
    return {"name": name, "status": "pass"}


def _multiset_check(name: str, engine: dict[int, int], oracle: dict[int, int]) -> dict:
    for d in sorted(set(engine) | set(oracle)):
        if engine.get(d, 0) != oracle.get(d, 0):
            return {
                "name": name,
                "status": "fail",
                "first_discrepancy": {
                    "dimension": d,
                    "engine": engine.get(d, 0),
                    "oracle": oracle.get(d, 0),
                },
            }
    return {"name": name, "status": "pass"}


def cmd_verify(args) -> int:
    from . import decomp, series
    from .spacealg import sphere_multiset_of

    vals = _int_params(args.family, args.params)
    checks: list[dict] = []
    params: dict[str, int] = {}
    if args.family == "path" and len(vals) == 1:
        l = vals[0]
        params = {"l": l}
        if args.mode in ("porter-hochster", "all"):
            from . import homology

            # the oracle refuses m = l + 1 > 20 (exit 5) before the engine builds the 2^l wedge
            oracle_ms = homology.zk_sphere_multiset(complexes.path_graph(l), jobs=args.jobs)
            zk = decomp.path_fibre_reduce(l, circles=True)
            engine_ms = sphere_multiset_of(zk, max(l + 2, 3))
            checks.append(_multiset_check("porter-hochster", engine_ms.counts, oracle_ms.counts))
        if args.mode in ("koszul", "all"):
            eng = decomp.path_decompose(l, n=args.N, max_dim=max(args.max_dim, l + 2)).series
            orc = series.koszul_loop_series(complexes.path_graph(l), args.N)
            checks.append(_series_check("koszul", eng, orc))
    elif args.family == "planar-book" and len(vals) == 2:
        l, p = vals
        params = {"l": l, "p": p}
        if args.mode == "porter-hochster":
            raise InvalidParameters("porter-hochster verification is defined for paths only")
        eng = decomp.dj_book_decompose(l, p, n=args.N, max_dim=args.max_dim).series
        orc = series.koszul_loop_series(complexes.planar_book(l, p), args.N)
        checks.append(_series_check("koszul", eng, orc))
    elif args.family == "book" and len(vals) == 3:
        nsp, l, p = vals
        params = {"n": nsp, "l": l, "p": p}
        if args.mode == "porter-hochster":
            raise InvalidParameters("porter-hochster verification is defined for paths only")
        K = complexes.book_graph(nsp, l, p)
        if l != 2 * nsp:
            # a non-flag book is refused by the oracle (exit 4) before the engine
            series.require_flag(K)
            raise InvalidParameters(
                "no series engine for books with l != 2n; only the planar family is decomposed"
            )
        orc = series.koszul_loop_series(K, args.N)
        eng = decomp.dj_book_decompose(nsp, p, n=args.N, max_dim=args.max_dim).series
        checks.append(_series_check("koszul", eng, orc))
    else:
        raise InvalidParameters(f"cannot verify family {args.family!r} with {args.params}")
    if not checks:
        raise InvalidParameters(f"mode {args.mode!r} does not apply to family {args.family!r}")
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
    if args.kind == "hilbert":
        s = series.hilbert_sr(K, args.N)
    else:
        s = series.koszul_loop_series(K, args.N)
    _emit(s.to_json_obj(), args)
    return 0


def _add_common(p: argparse.ArgumentParser, *, n=False, max_dim=False, jobs=False) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write output atomically to this file instead of stdout")
    if n:
        p.add_argument("--N", type=int, default=16, help="series truncation order")
    if max_dim:
        p.add_argument("--max-dim", dest="max_dim", type=int, default=16,
                       help="sphere enumeration ceiling")
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
    p.add_argument("family", choices=sorted(_FAMILY_ARITY))
    p.add_argument("params", nargs="*")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decompose", help="decompose loops on a polyhedral product")
    p.add_argument("family", choices=("path", "planar-book", "book"))
    p.add_argument("params", nargs="*")
    _add_common(p, n=True, max_dim=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check the engine against an independent oracle")
    p.add_argument("mode", choices=("porter-hochster", "koszul", "all"))
    p.add_argument("family", choices=("path", "planar-book", "book"))
    p.add_argument("params", nargs="*")
    _add_common(p, n=True, max_dim=True, jobs=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hochster", help="Betti table of a moment-angle complex")
    p.add_argument("family", choices=sorted(_FAMILY_ARITY))
    p.add_argument("params", nargs="*")
    p.add_argument("--ceiling", type=int, default=20, help="ground set size cap")
    p.add_argument("--cache-dir", dest="cache_dir", help="content-addressed result cache")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_hochster)

    p = sub.add_parser("series", help="Hilbert or Koszul series of a complex")
    p.add_argument("kind", choices=("hilbert", "koszul"))
    p.add_argument("family", choices=sorted(_FAMILY_ARITY))
    p.add_argument("params", nargs="*")
    _add_common(p, n=True)
    p.set_defaults(func=cmd_series)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", None) == 0:
        args.jobs = None
    try:
        return args.func(args)
    except GroundSizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NotFlagComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CeilingExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PolyloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
