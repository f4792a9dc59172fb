"""Sections of the band and frieze reconstruction from section values.

A section is a staircase of n+4 grid points, exactly one per row k = -1..n+2,
where the row-(k+1) point is reachable from the row-k point (i, j) by one of
two moves: keep i and step to (i, j+1), or keep j and step to (i-1, j).
Oblique sections take the same move every time: fixed i (down-right) or
fixed j (up-right).

A frieze is determined by any section whose values are all nonzero.  The
reconstruction here follows the constructive argument behind that fact:

1. The two neighboring staircases Sigma+ = Sigma + (1,1) and Sigma- =
   Sigma - (1,1) have known values on rows -1, 0, n+1, n+2 (zeros, ones and
   the row-(n+1) alternation v, (-c)^{n+1}/v).  Every mesh between Sigma and
   a neighbor has three corners on known rows or previously solved points,
   so the remaining neighbor values on rows 1..n fall out of the mesh rule.
   The dependency between adjacent rows runs one way per move, so a fixpoint
   sweep over the rows terminates.

2. Starting from the row-1 point (i*, i*), where x_{i*}, x_{i*-1}, x_{i*+1}
   are section and neighbor values, walk down the staircase one row per
   step.  Each step recovers one new first-row variable on the left or the
   right of the known window by inverting the row recurrence (the pivot is
   the section value on rows 2..n+1, nonzero by hypothesis).  After n steps
   the window holds n+3 consecutive first-row values: a full seed.

The resulting frieze is post-verified against every input value; any
mismatch means the values admit no frieze at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    InconsistentSection,
    InternalError,
    InvalidSeed,
    InvalidSection,
    ZeroOnSection,
    ZeroPivot,
)
from .frieze import Frieze, FriezeParams, GridPoint, PolygonalSequence

DOWN_RIGHT = "down-right"
UP_RIGHT = "up-right"


@dataclass(frozen=True)
class Section:
    """n+4 grid points, one per row, stored in row order (-1 first)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(GridPoint(int(i), int(j)) for i, j in self.points)
        pts = tuple(sorted(pts, key=lambda p: p.row))
        object.__setattr__(self, "points", pts)
        if len(pts) < 5:
            raise InvalidSection("a section has at least n+4 = 5 points")
        n = len(pts) - 4
        rows = [p.row for p in pts]
        if rows != list(range(-1, n + 3)):
            raise InvalidSection(
                f"rows must be exactly -1..{n + 2} once each, got {rows}"
            )
        for a, b in zip(pts, pts[1:]):
            if (b.i, b.j) not in ((a.i, a.j + 1), (a.i - 1, a.j)):
                raise InvalidSection(f"{b} is not adjacent to {a}")

    @property
    def n(self) -> int:
        return len(self.points) - 4

    def moves(self) -> list[str]:
        """Per-row step: 'J' keeps i (j+1), 'I' keeps j (i-1)."""
        out = []
        for a, b in zip(self.points, self.points[1:]):
            out.append("J" if b.j == a.j + 1 else "I")
        return out

    @property
    def is_oblique(self) -> bool:
        moves = set(self.moves())
        return len(moves) == 1

    @property
    def orientation(self) -> Optional[str]:
        moves = set(self.moves())
        if moves == {"J"}:
            return DOWN_RIGHT
        if moves == {"I"}:
            return UP_RIGHT
        return None


def oblique_section(n: int, anchor: int, orientation: str) -> Section:
    """The oblique section with fixed i = anchor (down-right) or fixed
    j = anchor (up-right)."""
    if orientation == DOWN_RIGHT:
        pts = [(anchor, anchor + k - 1) for k in range(-1, n + 3)]
    elif orientation == UP_RIGHT:
        pts = [(anchor - k + 1, anchor) for k in range(-1, n + 3)]
    else:
        raise ValueError(f"orientation must be {DOWN_RIGHT!r} or {UP_RIGHT!r}")
    return Section(tuple(pts))


@dataclass(frozen=True)
class SectionValues:
    """A section together with its values, aligned in row order."""

    section: Section
    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.section.points):
            raise ValueError("one value per section point required")
        n = self.section.n
        if vals[0] != 0 or vals[n + 3] != 0:
            raise InconsistentSection("rows -1 and n+2 must carry value 0")
        if vals[1] != 1:
            raise InconsistentSection("row 0 must carry value 1")


def extract_section(frieze: Frieze, section: Section) -> SectionValues:
    """Read the frieze's values along a section."""
    if section.n != frieze.n:
        raise ValueError("section and frieze have different orders")
    diags = {i: frieze.diagonal(i) for i in {p.i for p in section.points}}
    return SectionValues(
        section, tuple(diags[p.i][p.row + 1] for p in section.points)
    )


def recover_x(c, triple, direction: str = "forward") -> Fraction:
    """Recover a first-row variable from three consecutive oblique values.

    forward:  given (f(i,j-1), f(i,j), f(i,j+1)) down a fixed-i oblique,
              returns x_{j+1} = (f(i,j+1) - c*f(i,j-1)) / f(i,j);
    backward: given (f(i-1,j), f(i,j), f(i+1,j)) up a fixed-j oblique,
              returns x_{i-1} = (f(i-1,j) - c*f(i+1,j)) / f(i,j).
    """
    c = Fraction(c)
    f_prev, f_mid, f_next = (Fraction(v) for v in triple)
    if f_mid == 0:
        raise ZeroPivot("middle value of the triple is zero")
    if direction == "forward":
        return (f_next - c * f_prev) / f_mid
    if direction == "backward":
        return (f_prev - c * f_next) / f_mid
    raise ValueError("direction must be 'forward' or 'backward'")


def _neighbor_values(params: FriezeParams, sv: SectionValues, side: int) -> list:
    """Values of the shifted staircase Sigma + side*(1,1), indexed by row.

    Rows -1, 0, n+2 are fixed (0, 1, 0); row n+1 is the other member of the
    (s, t) alternation, (-c)^{n+1} / v_{n+1}.  Rows 1..n are solved from the
    mesh rule; each mesh ties the unknown at row k to the section values at
    rows k-1, k+1 or to the unknowns there, depending on the moves, and the
    dependencies are acyclic, so repeated sweeps terminate.
    """
    n, c = params.n, params.c
    v = sv.values  # index k+1 holds row k
    moves = sv.section.moves()  # moves[k+1] is the step from row k to k+1
    u: list = [None] * (n + 4)
    u[0] = Fraction(0)
    u[1] = Fraction(1)
    u[n + 2] = (-c) ** (n + 1) / v[n + 2]
    u[n + 3] = Fraction(0)
    pending = set(range(2, n + 2))  # rows 1..n
    while pending:
        progressed = False
        for idx in sorted(pending):
            k = idx - 1
            if side > 0:
                above = v[idx - 1] if moves[idx - 1] == "I" else u[idx - 1]
                below = v[idx + 1] if moves[idx] == "J" else u[idx + 1]
            else:
                above = v[idx - 1] if moves[idx - 1] == "J" else u[idx - 1]
                below = v[idx + 1] if moves[idx] == "I" else u[idx + 1]
            if above is None or below is None:
                continue
            u[idx] = ((-c) ** k + above * below) / v[idx]
            pending.discard(idx)
            progressed = True
        if not progressed:
            raise InternalError("neighbor-section sweep stalled")
    return u


def reconstruct(params: FriezeParams, sv: SectionValues) -> Frieze:
    """Rebuild the unique frieze taking the given values on the section.

    Requires every value on rows 0..n+1 to be nonzero; refuses otherwise,
    since each is a pivot of the walk.  Raises InconsistentSection when the
    values admit no frieze (the post-verification fails).
    """
    n, c = params.n, params.c
    if sv.section.n != n:
        raise ValueError("section order does not match parameters")
    v = sv.values
    for idx in range(1, n + 3):
        if v[idx] == 0:
            raise ZeroOnSection(f"zero value on row {idx - 1}")

    u_plus = _neighbor_values(params, sv, +1)
    u_minus = _neighbor_values(params, sv, -1)

    points = sv.section.points
    moves = sv.section.moves()
    i_star = points[2].i  # row-1 point is (i*, i*)
    xs = {
        i_star: v[2],
        i_star - 1: u_minus[2],
        i_star + 1: u_plus[2],
    }
    left, right = i_star - 1, i_star + 1
    for step in range(n):
        idx = step + 3  # list index of the row-(step+2) point
        if moves[idx - 1] == "J":
            f_next = v[idx + 1] if moves[idx] == "J" else u_plus[idx + 1]
            xs[right + 1] = recover_x(c, (v[idx - 1], v[idx], f_next), "forward")
            right += 1
        else:
            f_prev = v[idx + 1] if moves[idx] == "I" else u_minus[idx + 1]
            xs[left - 1] = recover_x(c, (f_prev, v[idx], v[idx - 1]), "backward")
            left -= 1

    values = tuple(xs[i] for i in range(left, right + 1))
    if len(values) != n + 3:
        raise InternalError("walk did not produce a full seed")
    try:
        frieze = Frieze(PolygonalSequence(params, left, values))
    except InvalidSeed as exc:
        raise InconsistentSection(f"recovered first-row window: {exc}") from None
    got_values = extract_section(frieze, sv.section).values
    for point, val, got in zip(points, v, got_values):
        if got != val:
            raise InconsistentSection(
                f"value mismatch at {tuple(point)}: section {val}, frieze {got}"
            )
    return frieze


# -- (de)serialization --------------------------------------------------------

def section_values_to_dict(sv: SectionValues) -> dict:
    from .exactnum import rat_str

    sec = sv.section
    if sec.is_oblique:
        anchor = sec.points[0].i if sec.orientation == DOWN_RIGHT else sec.points[0].j
        return {
            "oblique": {"anchor": anchor, "orientation": sec.orientation},
            "values": [rat_str(v) for v in sv.values],
        }
    return {
        "points": [[p.i, p.j] for p in sec.points],
        "values": [rat_str(v) for v in sv.values],
    }


def _is_int_pair(point) -> bool:
    return isinstance(point, list) and len(point) == 2 and all(
        type(v) is int for v in point)


def section_values_from_dict(data: dict) -> SectionValues:
    from .exactnum import rat_parse

    raw, shape, points = data.get("values"), data.get("oblique"), data.get("points")
    if not isinstance(raw, list):
        raise InvalidSection("section JSON needs a 'values' list")
    values = tuple(rat_parse(str(v)) for v in raw)
    if shape is not None:
        if not (isinstance(shape, dict) and type(shape.get("anchor")) is int
                and shape.get("orientation") in (DOWN_RIGHT, UP_RIGHT)):
            raise InvalidSection("'oblique' needs an integer anchor and "
                                 f"orientation {DOWN_RIGHT!r} or {UP_RIGHT!r}")
        section = oblique_section(len(values) - 4, shape["anchor"],
                                  shape["orientation"])
    elif points is not None:
        if not (isinstance(points, list) and all(map(_is_int_pair, points))):
            raise InvalidSection("'points' must list [i, j] integer pairs")
        section = Section(tuple(map(tuple, points)))
    else:
        raise InvalidSection("section JSON needs 'points' or 'oblique'")
    return SectionValues(section, values)
