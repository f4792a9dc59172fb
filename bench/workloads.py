"""Seeded inputs for the benchmark workloads.

A workload is a fixed deck of operation slots, and a run plays whole decks.
The slots (subcommand, order n, parameter c, construction) are the same for
every seed; the seed draws only the values.  Two seeds therefore give the
same input mix, and the spread between runs comes from the program and the
machine, not from the mix.  Each operation is one ``cfrieze`` argv plus the check its
output must pass; the program receives only the argv and the descriptor
and section files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from cfrieze import (
    DegenerateSeed,
    FriezeParams,
    PolygonalSequence,
    gamma,
    seed_from_free,
)

from oracles import (
    Ref,
    check_analyze,
    check_descriptor,
    check_render_json,
    check_render_text,
    check_render_tsv,
    check_same_frieze,
    check_verify,
    complete_free,
    cont,
)

ROUTES = ("periodic", "odd-rows-antiperiodic", "non-periodic",
          "monotonic-integer-c", "repetitive", "c-induced", "non-unit-den-c")


@dataclass
class Op:
    """One CLI call and the check of its result.

    ``check(stdout, out_text)`` returns None or a one-line failure reason;
    ``out`` names the file the call writes with ``--out``.
    """

    kind: str
    argv: list
    check: Callable[[str, Optional[str]], Optional[str]]
    routes: frozenset = frozenset()
    expect_exit: int = 0
    expect_stderr: str = ""
    out: Optional[Path] = None


@dataclass
class Workload:
    name: str
    make_deck: Callable   # (rng, workdir) -> list[Op]
    routes: tuple         # routes every run must reach
    decks: int            # decks in the op list of one run


# -- frieze constructions -------------------------------------------------------

def _base(rng) -> int:
    return rng.randint(-3, 3)


def generic_seed(rng, c, n: int, distinct_st: bool = False) -> Ref:
    """A random frieze from small-integer free values (seed_from_free)."""
    params = FriezeParams(Fraction(c), n)
    while True:
        free = [Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
        b = _base(rng)
        try:
            seed = seed_from_free(params, free, b)
        except DegenerateSeed:
            continue
        ref = Ref(params.c, n, b, seed.values)
        if not distinct_st or abs(ref.s) != abs(ref.t):
            return ref


def pinned_seed(rng, c, n: int, target_root) -> Ref:
    """A frieze whose first penultimate-row value is +-root^(n+1).

    The last free value is solved from P_{n+1}(x_1..x_{n+1}) = target, as
    the repetitive generator of the test suite does.  With c = -r^2 and
    root r this gives s = t (repetitive); with c = r^2, n even and root r
    it gives s = -t (odd rows antiperiodic).
    """
    c = Fraction(c)
    params = FriezeParams(c, n)
    while True:
        head = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        pen = cont(c, head)
        if pen == 0:
            continue
        target = rng.choice([1, -1]) * Fraction(target_root) ** (n + 1)
        last = (target - c * cont(c, head[:-1])) / pen
        b = _base(rng)
        try:
            seed = seed_from_free(params, head + [last], b)
        except DegenerateSeed:
            continue
        return Ref(c, n, b, seed.values)


def induced_seed(rng, r: int, n: int) -> Ref:
    """A c-induced frieze of order n: the order lift of a repetitive one."""
    low = pinned_seed(rng, -r * r, n - 1, r)
    lifted = gamma(PolygonalSequence(FriezeParams(low.c, n - 1), low.base,
                                     tuple(low.seed)))
    return Ref(low.c, n, lifted.base_index, lifted.values)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _rat_list(values) -> str:
    return ",".join(str(v) for v in values)


# -- analyze-batch ----------------------------------------------------------------

# (construction, n, c or r); 20 slots, three of them (15%) in the large-n
# group so that p90 falls among them.  Both parities of n appear.
_ANALYZE_SLOTS = (
    ("generic", 24, Fraction(-1)), ("generic", 25, Fraction(4)),
    ("generic", 25, Fraction(3, 2)),
    ("generic", 6, Fraction(-1)), ("generic", 7, Fraction(4)),
    ("generic", 8, Fraction(3, 2)), ("generic", 9, Fraction(-1)),
    ("generic", 12, Fraction(4)), ("generic", 13, Fraction(3, 2)),
    ("generic", 16, Fraction(-1)), ("generic", 17, Fraction(4)),
    ("generic", 7, Fraction(3, 2)),
    ("repetitive", 7, 1), ("repetitive", 8, 2), ("repetitive", 12, 1),
    ("repetitive", 13, 3),
    ("induced", 9, 1), ("induced", 16, 2),
    ("antiperiodic", 6, 2), ("antiperiodic", 12, 2),
)


def _analyze_ref(rng, construction: str, n: int, param) -> Ref:
    if construction == "generic":
        return generic_seed(rng, param, n)
    if construction == "repetitive":
        return pinned_seed(rng, -param * param, n, param)
    if construction == "induced":
        return induced_seed(rng, param, n)
    return pinned_seed(rng, param * param, n, param)


def analyze_op(ref: Ref, path: Path, rng, write: bool = True) -> Op:
    """analyze of the frieze; ``write=False`` reads a descriptor that an
    earlier op of the session writes."""
    if write:
        _write_json(path, ref.descriptor())
    check_rng = random.Random(rng.random())
    return Op("analyze", ["analyze", "--in", str(path)],
              lambda stdout, _: check_analyze(ref, stdout, check_rng),
              frozenset(ref.routes()))


def analyze_deck(rng, workdir: Path) -> list:
    slots = list(_ANALYZE_SLOTS)
    rng.shuffle(slots)
    return [analyze_op(_analyze_ref(rng, *slot), workdir / f"a{m}.json", rng)
            for m, slot in enumerate(slots)]


# -- far-row ----------------------------------------------------------------------

_FAR_ORDERS = (5, 7, 9, 11)
_FAR_PARAMS = (Fraction(4), Fraction(-3), Fraction(5, 2))
_FAR_COLS = 8


def render_op(ref: Ref, path: Path, fmt: str, start: int, cols: int, rng,
              write: bool = True) -> Op:
    if write:
        _write_json(path, ref.descriptor())
    check_rng = random.Random(rng.random())
    checks = {
        "tsv": lambda out, _: check_render_tsv(ref, out, start, cols, check_rng),
        "json": lambda out, _: check_render_json(ref, out, start, cols, check_rng),
        "text": lambda out, _: check_render_text(ref, out, start, cols),
    }
    argv = ["render", "--in", str(path), "--from", str(start),
            "--cols", str(cols), "--format", fmt]
    return Op(f"render-{fmt}", argv, checks[fmt], frozenset(ref.routes()))


def far_row_deck(rng, workdir: Path) -> list:
    """24 slots: every (n, c) pair in both directions.  The distances are
    stratified over [100, 600], one per 1/24 of the range, so that every
    deck carries the same spread of walk lengths."""
    slots = [(n, c, sign) for n in _FAR_ORDERS for c in _FAR_PARAMS
             for sign in (1, -1)]
    strata = list(range(len(slots)))
    rng.shuffle(strata)
    ops = []
    for m, ((n, c, sign), stratum) in enumerate(zip(slots, strata)):
        ref = generic_seed(rng, c, n, distinct_st=True)
        dist = 100 + int(500 * (stratum + rng.random()) / len(slots))
        ops.append(render_op(ref, workdir / f"f{m}.json", "tsv",
                             ref.base + sign * dist, _FAR_COLS, rng))
    rng.shuffle(ops)
    return ops


# -- cli-session ------------------------------------------------------------------

VERIFY_MAX_K = 8


def _section_payload(ref: Ref, points) -> Optional[dict]:
    values = [ref.cell(i, j) for i, j in points]
    if any(v == 0 for v in values[1:ref.n + 3]):
        return None
    return {"points": [list(p) for p in points],
            "values": [str(v) for v in values]}


def section_file(rng, ref: Ref, path: Path, oblique: bool) -> Optional[Path]:
    """A section of the frieze with no zero on rows 0..n+1, or None when
    some tries find none (zeros in the first row can block them all)."""
    n = ref.n
    for _ in range(50):
        anchor = ref.base + rng.randint(-3, 3)
        if oblique:
            moves = "J" * (n + 3)
        else:
            moves = "".join(rng.choice("JI") for _ in range(n + 3))
            if len(set(moves)) == 1:
                continue
        points = [(anchor, anchor - 2)]
        for move in moves:
            i, j = points[-1]
            points.append((i, j + 1) if move == "J" else (i - 1, j))
        payload = _section_payload(ref, points)
        if payload is None:
            continue
        if oblique:
            payload = {"oblique": {"anchor": anchor, "orientation": "down-right"},
                       "values": payload["values"]}
        return _write_json(path, payload)
    return None


def _build_free_op(rng, c: Fraction, n: int, out: Path):
    while True:
        free = [Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
        base = _base(rng)
        try:
            seed = complete_free(c, n, free)
        except ZeroDivisionError:
            continue
        ref = Ref(c, n, base, seed)
        if ref.admissible():
            break
    argv = ["build", f"--c={c}", "--n", str(n), f"--free={_rat_list(free)}",
            "--base", str(base), "--out", str(out)]
    expected = ref.descriptor()
    op = Op("build-free", argv, lambda _, text: check_descriptor(expected, text),
            frozenset(ref.routes()), out=out)
    return ref, op


def _transform_op(ref: Ref, src: Path, op_name: str, out: Path, expected: dict,
                  kind: str) -> Op:
    argv = ["transform", "--in", str(src), "--op", op_name, "--out", str(out)]
    return Op(kind, argv, lambda _, text: check_descriptor(expected, text),
              frozenset(ref.routes()), out=out)


def _reconstruct_op(ref: Ref, section: Path, out: Path, kind: str) -> Op:
    argv = ["reconstruct", f"--c={ref.c}", "--n", str(ref.n),
            "--in", str(section), "--out", str(out)]
    return Op(kind, argv, lambda _, text: check_same_frieze(ref, text),
              frozenset(ref.routes()), out=out)


def _flip(ref: Ref) -> dict:
    seed = [-v if (ref.base + m) % 2 else v for m, v in enumerate(ref.seed)]
    return Ref(-ref.c, ref.n, ref.base, seed).descriptor()


def _scaled(ref: Ref, d: Fraction) -> dict:
    return Ref(ref.c * d * d, ref.n, ref.base, [d * v for v in ref.seed]).descriptor()


def cli_session_deck(rng, workdir: Path) -> list:
    """20 ops in three scripted sessions plus one identity check (5%).

    Session A (odd n, non-unit den(c), non-periodic): build --free, render
    json, analyze, flip twice, reconstruct from an oblique section, and a
    rejected seed.  Session P (even n, integer c, periodic): build --free,
    render tsv and text, analyze, scale by d and 1/d, reconstruct from a
    zig-zag section, build --seed.  Session R (repetitive, c = -r^2): build
    --seed, order lift, its inverse, analyze of the c-induced lift.
    """
    w = workdir
    ops = []

    # session A
    n = rng.choice((3, 5, 7))
    c = rng.choice((Fraction(3, 2), Fraction(-5, 3)))
    while True:
        ref, op = _build_free_op(rng, c, n, w / "A.json")
        section = section_file(rng, ref, w / "A-sec.json", True)
        if abs(ref.s) != abs(ref.t) and section is not None:
            break
    ops.append(op)
    ops.append(render_op(ref, w / "A.json", "json", ref.base + rng.randint(-3, 3),
                         rng.randint(n + 2, n + 6), rng, write=False))
    ops.append(analyze_op(ref, w / "A.json", rng, write=False))
    ops.append(_transform_op(ref, w / "A.json", "flip", w / "A-flip.json",
                             _flip(ref), "transform-flip"))
    ops.append(_transform_op(ref, w / "A-flip.json", "flip", w / "A-flip2.json",
                             ref.descriptor(), "transform-flip"))
    ops.append(_reconstruct_op(ref, section, w / "A-rec.json", "reconstruct-oblique"))
    while True:
        bad = list(ref.seed)
        bad[rng.randrange(len(bad))] += 1
        if not Ref(c, n, ref.base, bad).admissible():
            break
    ops.append(Op("build-seed-invalid",
                  ["build", f"--c={c}", "--n", str(n), f"--seed={_rat_list(bad)}",
                   "--base", str(ref.base)],
                  lambda out, _: None if out == "" else "stdout not empty",
                  expect_exit=1, expect_stderr="error[InvalidSeed]"))

    # session P
    n = rng.choice((2, 4, 6, 8))
    c = rng.choice((Fraction(-1), Fraction(2), Fraction(4)))
    while True:
        ref, op = _build_free_op(rng, c, n, w / "P.json")
        section = section_file(rng, ref, w / "P-sec.json", False)
        if section is not None:
            break
    ops.append(op)
    for fmt in ("tsv", "text"):
        ops.append(render_op(ref, w / "P.json", fmt, ref.base + rng.randint(-3, 3),
                             rng.randint(n + 2, n + 6), rng, write=False))
    ops.append(analyze_op(ref, w / "P.json", rng, write=False))
    d = Fraction(rng.choice((2, 3, -2)), rng.choice((1, 3)))
    ops.append(_transform_op(ref, w / "P.json", f"scale:{d}", w / "P-s.json",
                             _scaled(ref, d), "transform-scale"))
    ops.append(_transform_op(ref, w / "P-s.json", f"scale:{1 / d}", w / "P-s2.json",
                             ref.descriptor(), "transform-scale"))
    ops.append(_reconstruct_op(ref, section, w / "P-rec.json", "reconstruct-zigzag"))
    expected = ref.descriptor()
    ops.append(Op("build-seed",
                  ["build", f"--c={c}", "--n", str(n), f"--seed={_rat_list(ref.seed)}",
                   "--base", str(ref.base)],
                  lambda out, _: check_descriptor(expected, out),
                  frozenset(ref.routes())))

    # session R; the lift's first induced index must be the spliced one,
    # else gamma-inv drops another r and is not the lift's inverse
    r = rng.choice((1, 2))
    while True:
        low = pinned_seed(rng, -r * r, rng.randint(2, 6), r)
        v = low.seed
        lifted = Ref(low.c, low.n + 1, low.base,
                     [v[0] + r] + v[1:-1] + [v[-1] + r, Fraction(r)])
        if lifted.induced_index(lifted.kind_and_period()[1]) == low.base + low.n + 3:
            break
    ops.append(Op("build-seed",
                  ["build", f"--c={low.c}", "--n", str(low.n),
                   f"--seed={_rat_list(low.seed)}", "--base", str(low.base),
                   "--out", str(w / "R.json")],
                  lambda _, text, e=low.descriptor(): check_descriptor(e, text),
                  frozenset(low.routes()), out=w / "R.json"))
    ops.append(_transform_op(low, w / "R.json", "gamma", w / "R-g.json",
                             lifted.descriptor(), "transform-gamma"))
    ops.append(_transform_op(lifted, w / "R-g.json", "gamma-inv", w / "R-gi.json",
                             low.descriptor(), "transform-gamma-inv"))
    ops.append(analyze_op(lifted, w / "R-g.json", rng, write=False))

    ops.append(Op("verify", ["verify", "--identities", "--max-k", str(VERIFY_MAX_K)],
                  lambda out, _: check_verify(out, VERIFY_MAX_K)))
    return ops


# -- warm-up ----------------------------------------------------------------------

def smoke_ops(workdir: Path) -> list:
    """Every subcommand once on tiny fixed inputs.

    Run before the timed ops so that lazy imports and first-call costs fall
    into set-up, and replayed in the traced run so that every layer has
    spans on every workload.
    """
    rng = random.Random(0)
    ref = Ref(4, 2, 1, complete_free(Fraction(4), 2, [2, -3, -1]))
    low = Ref(-4, 2, 1, [4, 3, 3, 4, Fraction(5, 2)])
    lifted = Ref(-4, 3, 1, [6, 3, 3, 4, Fraction(9, 2), 2])
    sec = section_file(rng, ref, workdir / "smoke-sec.json", True)
    ops = [
        Op("build-free", ["build", "--c=4", "--n", "2", "--free=2,-3,-1"],
           lambda out, _: check_descriptor(ref.descriptor(), out)),
        render_op(ref, workdir / "smoke.json", "text", 0, 8, rng),
        analyze_op(ref, workdir / "smoke-a.json", rng),
        _reconstruct_op(ref, sec, workdir / "smoke-rec.json", "reconstruct"),
        _transform_op(ref, workdir / "smoke.json", "flip", workdir / "smoke-f.json",
                      _flip(ref), "transform-flip"),
        _transform_op(low, _write_json(workdir / "smoke-low.json", low.descriptor()),
                      "gamma", workdir / "smoke-g.json", lifted.descriptor(),
                      "transform-gamma"),
        Op("verify", ["verify", "--identities", "--max-k", "4"],
           lambda out, _: check_verify(out, 4)),
    ]
    return ops


WORKLOADS = {
    "analyze-batch": Workload(
        "analyze-batch", analyze_deck, ROUTES, decks=5),
    "far-row": Workload(
        "far-row", far_row_deck, ("non-periodic", "non-unit-den-c"), decks=5),
    "cli-session": Workload(
        "cli-session", cli_session_deck,
        ("periodic", "non-periodic", "repetitive", "c-induced", "non-unit-den-c"),
        decks=20),
}
