"""One benchmark job in a fresh interpreter.

    python perfbench/child.py [--trace FILE] cli ARG...     polyloop.cli.main(ARGS)
    python perfbench/child.py [--trace FILE] api JOB ARG...  one library call chain

API jobs print their result as compact JSON on stdout:

    api hm DIMS CUTOFF     poincare_series(normalize(hilton_milnor(W, CUTOFF)),
                           CUTOFF - 1), W the wedge of spheres of the comma
                           separated dimensions DIMS
    api readback FILE N    poincare_series(parse_sexpr(text of FILE), N)

With --trace the polyloop modules are wrapped by tracing.Tracer after
`import polyloop.cli` has been timed, and the spans are written to FILE when
the job ends. Needs polyloop on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def run_api(args: list[str]) -> int:
    from polyloop import spacealg

    if args[0] == "hm":
        w = spacealg.Wedge(tuple(spacealg.Sphere(int(d)) for d in args[1].split(",")))
        cutoff = int(args[2])
        s = spacealg.poincare_series(spacealg.normalize(spacealg.hilton_milnor(w, cutoff)), cutoff - 1)
    elif args[0] == "readback":
        with open(args[1], encoding="utf-8") as fh:
            text = fh.read()
        s = spacealg.poincare_series(spacealg.parse_sexpr(text), int(args[2]))
    else:
        print(f"unknown api job {args[0]!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(s.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import polyloop.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace_file is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return polyloop.cli.main(args)
        return run_api(args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_file, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
