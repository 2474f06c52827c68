"""Test-only reference for what `polyloop decompose` writes.

_write_atomic and _emit are the command line's writers as they were before
decompose streamed its terms run by run: the whole document is built as one
string, then written to stdout or atomically to --out. cmd_decompose is the
subcommand as it was, with each factor's term rendered by the spelled-out
s-expression emitter kept in spacealg_reference. tests/test_cli.py checks
that the package writes the same bytes in every output mode.
"""

import json
import os
import sys

import spacealg_reference as ref

from polyloop import decomp
from polyloop.cli import _FAMILIES, _family_params, _text_lines


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


def cmd_decompose(args) -> int:
    params = _family_params(args.family, args.params)
    build = getattr(decomp, _FAMILIES[args.family][2])
    # the symbolic book has no sphere report, so it takes no ceiling
    ceiling = {} if args.family == "book" else {"max_dim": args.max_dim}
    _emit(build(*params.values(), n=args.N, **ceiling).to_json_obj(ref.format_sexpr), args)
    return 0
