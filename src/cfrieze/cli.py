"""Command-line interface.

Subcommands: build, render, analyze, reconstruct, transform, verify.
Structured results go to stdout as JSON unless --format text/tsv; every
diagnostic goes to stderr.  Exit codes: 0 success, 1 domain error (the
error class name is reported verbatim), 2 usage error.  Output is
deterministic: rationals are never decimalized and payloads carry no
timestamps, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis
from .continuant import identity_suite
from .errors import (
    FriezeError,
    MalformedInput,
    MalformedRational,
    NotInduced,
    ZeroDenominator,
)
from .exactnum import rat_parse, rat_str
from .frieze import (
    Frieze,
    FriezeParams,
    PolygonalSequence,
    frieze_from_dict,
    frieze_to_dict,
    seed_from_free,
)
from .section import section_values_from_dict
from .transform import flip_sign_seed, gamma, gamma_inverse, scale_seed


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    return data


def _load_frieze(path: str) -> Frieze:
    return frieze_from_dict(_load_json(path))


def _parse_rat_flag(parser, flag: str, text: str) -> Fraction:
    try:
        return rat_parse(text)
    except (MalformedRational, ZeroDenominator) as exc:
        parser.error(f"{flag}: {exc}")


def _parse_rat_list(parser, flag: str, text: str) -> list[Fraction]:
    return [_parse_rat_flag(parser, flag, part) for part in text.split(",")]


def _order(text: str) -> int:
    """argparse type of --n: an order n >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"order n must be >= 1, got {n}")
    return n


# -- build ---------------------------------------------------------------

def _cmd_build(parser, args) -> int:
    c = _parse_rat_flag(parser, "--c", args.c)
    params = FriezeParams(c, args.n)
    if args.free is not None:
        free = _parse_rat_list(parser, "--free", args.free)
        if len(free) != args.n + 1:
            parser.error(f"--free needs n+1 = {args.n + 1} values")
        seed = seed_from_free(params, free, args.base)
        frieze = Frieze(seed, validate=False)
    else:
        values = _parse_rat_list(parser, "--seed", args.seed)
        if len(values) != args.n + 3:
            parser.error(f"--seed needs n+3 = {args.n + 3} values")
        frieze = Frieze(PolygonalSequence(params, args.base, tuple(values)))
    _emit(args, frieze_to_dict(frieze))
    return 0


# -- render ---------------------------------------------------------------

def _render_cells(frieze: Frieze, start: int, cols: int):
    """Cells of the rectangular window: rows -1..n+2, anchors start..start+cols-1."""
    anchors = range(start, start + cols)
    diags = [frieze.diagonal(i) for i in anchors]
    for k in range(-1, frieze.n + 3):
        yield k, [(i, i + k - 1, diag[k + 1]) for i, diag in zip(anchors, diags)]


def _render_text(frieze: Frieze, start: int, cols: int) -> str:
    """The staggered band layout: the cell (i, j) sits at diagonal i+j, so
    row k entries fall two text columns apart and adjacent rows interleave."""
    d0 = 2 * start - 2
    width = 2 * cols
    grid = {}
    # the anchors whose diagonals have a cell in text columns 0..width-1:
    # the lowest puts its row-(n+2) cell there, the highest its row -1 cell
    for i in range((d0 - frieze.n) // 2, start + cols):
        for k, value in enumerate(frieze.diagonal(i), start=-1):
            col = 2 * i + k - 1 - d0
            if 0 <= col < width:
                grid[(k, col)] = rat_str(value)
    col_width = [
        max((len(v) for (k, col), v in grid.items() if col == col_idx), default=0)
        for col_idx in range(width)
    ]
    lines = []
    for k in range(-1, frieze.n + 3):
        cells = [
            grid.get((k, col), "").rjust(col_width[col]) for col in range(width)
        ]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_render(parser, args) -> int:
    frieze = _load_frieze(args.infile)
    start = args.start if args.start is not None else frieze.base_index
    cols = args.cols if args.cols is not None else frieze.n + 4
    if cols < 1:
        parser.error("--cols must be >= 1")
    if args.format == "text":
        _write(args, _render_text(frieze, start, cols))
    elif args.format == "tsv":
        lines = [
            f"{i}\t{j}\t{rat_str(value)}"
            for _, cells in _render_cells(frieze, start, cols)
            for i, j, value in cells
        ]
        _write(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "c": rat_str(frieze.c),
            "n": frieze.n,
            "from": start,
            "cols": cols,
            "rows": [
                {
                    "k": k,
                    "cells": [
                        {"i": i, "j": j, "value": rat_str(value)}
                        for i, j, value in cells
                    ],
                }
                for k, cells in _render_cells(frieze, start, cols)
            ],
        }
        _emit(args, payload)
    return 0


# -- analyze ---------------------------------------------------------------

def _cmd_analyze(parser, args) -> int:
    frieze = _load_frieze(args.infile)
    report = frieze.period_report()
    cls = analysis.classify(frieze)
    verdict = analysis.is_integer_frieze(frieze)
    witness = None
    if verdict.witness is not None:
        point, value = verdict.witness
        witness = {"i": point.i, "j": point.j, "value": rat_str(value)}
    payload = {
        "convention": "s = f(i, i+n) at even i",
        "s": rat_str(report.s),
        "t": rat_str(report.t),
        "periodicity": {
            "kind": report.kind,
            "period": report.period,
            "even_row_period": report.even_row_period,
            "odd_row_scaling_even_anchor": rat_str(report.odd_row_scaling_even_anchor),
            "odd_row_scaling_odd_anchor": rat_str(report.odd_row_scaling_odd_anchor),
        },
        "classification": {
            "monotonic": cls.monotonic,
            "repetitive": cls.repetitive,
            "alternating": cls.alternating,
            "c_induced": cls.c_induced,
            "induced_index": cls.induced_index,
        },
        "integrality": {
            "status": verdict.status,
            "witness": witness,
            "window": list(verdict.window) if verdict.window else None,
        },
        "positive": analysis.is_positive(frieze),
    }
    _emit(args, payload)
    return 0


# -- reconstruct -------------------------------------------------------------

def _cmd_reconstruct(parser, args) -> int:
    c = _parse_rat_flag(parser, "--c", args.c)
    params = FriezeParams(c, args.n)
    sv = section_values_from_dict(_load_json(args.infile))
    from .section import reconstruct

    frieze = reconstruct(params, sv)
    _emit(args, frieze_to_dict(frieze))
    return 0


# -- transform ---------------------------------------------------------------

def _cmd_transform(parser, args) -> int:
    frieze = _load_frieze(args.infile)
    op = args.op
    if op == "flip":
        result = Frieze(flip_sign_seed(frieze.seed), validate=False)
    elif op.startswith("scale:"):
        d = _parse_rat_flag(parser, "--op scale", op.split(":", 1)[1])
        result = Frieze(scale_seed(frieze.seed, d), validate=False)
    elif op == "gamma":
        result = Frieze(gamma(frieze.seed), validate=False)
    elif op == "gamma-inv" or op.startswith("gamma-inv:"):
        if ":" in op:
            try:
                j0 = int(op.split(":", 1)[1])
            except ValueError:
                parser.error(f"--op: gamma-inv index must be an integer in {op!r}")
        else:
            cls = analysis.classify(frieze)
            if cls.induced_index is None:
                raise NotInduced("frieze is not c-induced; cannot infer the index")
            j0 = cls.induced_index
        result = gamma_inverse(frieze, j0)
    else:
        parser.error(f"--op: unknown operation {op!r}")
    _emit(args, frieze_to_dict(result))
    return 0


# -- verify ---------------------------------------------------------------

# Symbolic term counts grow like Fibonacci numbers: k = 12 takes about 1.5 s.
MAX_IDENTITY_K = 12


def _cmd_verify(parser, args) -> int:
    if not args.identities:
        parser.error("nothing to verify; pass --identities")
    if not 1 <= args.max_k <= MAX_IDENTITY_K:
        parser.error(f"--max-k must lie in 1..{MAX_IDENTITY_K}")
    failures = 0
    lines = []
    for label, certificate in identity_suite(args.max_k):
        if certificate is None:
            lines.append(f"ok {label}")
        else:
            failures += 1
            lines.append(f"FAIL {label}: {certificate}")
    _write(args, "\n".join(lines) + "\n")
    return 1 if failures else 0


# -- parser ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrieze",
        description="Construct, render, analyze and transform c-friezes "
        "over exact rationals.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_build = sub.add_parser("build", help="construct a frieze descriptor")
    p_build.add_argument("--c", required=True, help="parameter c, as p or p/q")
    p_build.add_argument("--n", required=True, type=_order, help="order n >= 1")
    group = p_build.add_mutually_exclusive_group(required=True)
    group.add_argument("--free", help="n+1 free first-row values, comma-separated")
    group.add_argument("--seed", help="n+3 seed values, comma-separated")
    p_build.add_argument("--base", type=int, default=1, help="base index (default 1)")
    p_build.add_argument("--out", help="write JSON here instead of stdout")

    p_render = sub.add_parser("render", help="render a window of the band")
    p_render.add_argument("--in", dest="infile", required=True)
    p_render.add_argument("--from", dest="start", type=int, default=None)
    p_render.add_argument("--cols", type=int, default=None)
    p_render.add_argument("--format", choices=("text", "tsv", "json"),
                          default="json")
    p_render.add_argument("--out")

    p_analyze = sub.add_parser("analyze", help="periodicity, classification, "
                               "integrality and positivity report")
    p_analyze.add_argument("--in", dest="infile", required=True)
    p_analyze.add_argument("--out")

    p_rec = sub.add_parser("reconstruct", help="rebuild a frieze from a section")
    p_rec.add_argument("--c", required=True)
    p_rec.add_argument("--n", required=True, type=_order)
    p_rec.add_argument("--in", dest="infile", required=True)
    p_rec.add_argument("--out")

    p_tr = sub.add_parser("transform", help="flip, scale or shift the order")
    p_tr.add_argument("--in", dest="infile", required=True)
    p_tr.add_argument("--op", required=True,
                      help="flip | scale:d | gamma | gamma-inv[:j0]")
    p_tr.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run the continuant identity suite")
    p_ver.add_argument("--identities", action="store_true")
    p_ver.add_argument("--max-k", dest="max_k", type=int, default=8)
    p_ver.add_argument("--out")

    return parser


_HANDLERS = {
    "build": _cmd_build,
    "render": _cmd_render,
    "analyze": _cmd_analyze,
    "reconstruct": _cmd_reconstruct,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.cmd](parser, args)
    except (FriezeError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error[MalformedJSON]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[ValueError]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
