"""Decision procedures on friezes: positivity, integrality, classification.

Everything here reduces an infinite claim to a finite, exact check:

* positivity and integrality of a periodic frieze are decided by scanning
  rows 1..n+1 over one full period;
* a frieze that is not periodic (n odd, |s| != |t|) still has shift-invariant
  signs: odd-order rows rescale by (-c)^{n+1}/t^2 or (-c)^{n+1}/s^2 under a
  shift by n+3, and n odd makes n+1 even, so both factors are strictly
  positive.  A sign window of width 2(n+3) therefore decides positivity, and
  an integrality scan over the same window is reported as window-verified
  only, never as a global verdict;
* for monotonic friezes (|s| = |t|) with integer parameter, integrality of
  the whole frieze is equivalent to integrality of the first row, so one
  first-row period suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .continuant import continuant_det
from .errors import (
    InternalError,
    NotASquare,
    NotMonotonic,
    PreconditionBreach,
    ZeroPivot,
)
from .exactnum import divides, is_integer, sqrt_exact
from .frieze import NON_PERIODIC, Frieze, FriezeParams, GridPoint
from .section import SectionValues, reconstruct


@dataclass(frozen=True)
class Classification:
    monotonic: bool          # |s| = |t|, hence periodic
    repetitive: bool         # s = t and c < 0
    alternating: bool        # monotonic with c = 1
    c_induced: bool          # repetitive with (-c)^(1/2) in the first row
    induced_index: Optional[int]


ALL_INTEGER = "all-integer"
NON_INTEGER = "non-integer"
WINDOW_VERIFIED = "window-verified"


@dataclass(frozen=True)
class IntegralityVerdict:
    status: str
    witness: Optional[tuple] = None      # (GridPoint, value) for NON_INTEGER
    window: Optional[tuple] = None       # (lo, hi) for WINDOW_VERIFIED


def classify(frieze: Frieze) -> Classification:
    s, t = frieze.s_t()
    c = frieze.c
    monotonic = abs(s) == abs(t)
    repetitive = s == t and c < 0
    alternating = monotonic and c == 1
    induced = False
    induced_index = None
    if repetitive:
        try:
            root = sqrt_exact(-c)
        except NotASquare:
            root = None
        if root is not None:
            # repetitive => periodic with period dividing n+3, so one
            # period of the first row is a complete search space
            period = frieze.period_report().period
            base = frieze.base_index
            for i in range(base, base + period):
                if frieze.first_row(i) == root:
                    induced = True
                    induced_index = i
                    break
    return Classification(monotonic, repetitive, alternating, induced, induced_index)


def _scan_rows(frieze: Frieze, width: int):
    """Yield (point, value) over rows 1..n+1 for anchors in one window."""
    base = frieze.base_index
    for i in range(base, base + width):
        diag = frieze.diagonal(i)
        for k in range(1, frieze.n + 2):
            yield GridPoint(i, i + k - 1), diag[k + 1]


def is_positive(frieze: Frieze) -> bool:
    """True iff every value on rows 1..n+1 is strictly positive.

    Rows -1, 0 and n+2 are excluded: they hold zeros and ones by definition.
    """
    report = frieze.period_report()
    if report.kind != NON_PERIODIC:
        width = report.period
    else:
        if (report.odd_row_scaling_even_anchor <= 0
                or report.odd_row_scaling_odd_anchor <= 0):
            raise InternalError("odd-row scaling factors must be positive squares")
        width = 2 * (frieze.n + 3)
    return all(value > 0 for _, value in _scan_rows(frieze, width))


def positivity_from_section(params: FriezeParams, sv: SectionValues) -> bool:
    """Reconstruct from an all-positive section (c < 0) and test positivity.

    The theory guarantees the result is True; a False return would indicate
    an implementation bug.
    """
    if params.c >= 0:
        raise PreconditionBreach("positivity propagation needs c < 0")
    n = sv.section.n
    for idx in range(2, n + 3):  # rows 1..n+1
        if sv.values[idx] <= 0:
            raise PreconditionBreach(
                f"section value on row {idx - 1} is not positive"
            )
    return is_positive(reconstruct(params, sv))


def divisibility_condition(c, values: Sequence) -> bool:
    """First integrality condition along an oblique, on row-ordered values.

    For each pivot w_k on rows 0..n+1 the test is w_k | w_{k+1} - c*w_{k-1}.
    The same formula covers both oblique orientations.
    """
    c = Fraction(c)
    vals = [Fraction(v) for v in values]
    n = len(vals) - 4
    if n < 1:
        raise ValueError("need at least n+4 = 5 oblique values")
    for idx in range(1, n + 3):  # rows 0..n+1
        pivot = vals[idx]
        if pivot == 0:
            raise ZeroPivot(f"zero oblique value on row {idx - 1}")
        if not divides(pivot, vals[idx + 1] - c * vals[idx - 1]):
            return False
    return True


def integrality_second_condition(frieze: Frieze, anchor: int) -> tuple[Fraction, bool]:
    """Second integrality condition at a down-right oblique anchor.

    Returns (c * f(i0+1, i0+n) / |s|, is-integer).  The value is also
    computed independently as (c/|s|) times the order-n continuant of the
    quotients mu_l = (f(i0,i0+l) - c*f(i0,i0+l-2)) / f(i0,i0+l-1), l = 1..n,
    evaluated as a tridiagonal determinant; the two routes must agree
    exactly.  Defined for monotonic friezes with integer s only.
    """
    s, t = frieze.s_t()
    c, n = frieze.c, frieze.n
    if abs(s) != abs(t):
        raise NotMonotonic("second integrality condition needs |s| = |t|")
    if not is_integer(s):
        raise PreconditionBreach("second integrality condition needs s in Z")
    i0 = anchor
    obl = dict(zip(range(-2, n + 2), frieze.diagonal(i0)))
    for l in range(-1, n + 1):  # rows 0..n+1
        if obl[l] == 0:
            raise ZeroPivot(f"zero oblique value at offset {l}")
    mus = [(obl[l] - c * obl[l - 2]) / obl[l - 1] for l in range(1, n + 1)]
    det_route = c / abs(s) * continuant_det(c, mus)
    closed_route = c * frieze.value(i0 + 1, i0 + n) / abs(s)
    if det_route != closed_route:
        raise InternalError(
            f"mu-determinant {det_route} != closed form {closed_route}"
        )
    return closed_route, is_integer(closed_route)


def is_integer_frieze(frieze: Frieze) -> IntegralityVerdict:
    """Decide integrality of the whole frieze by a provably complete scan.

    Monotonic friezes with integer parameter are integer iff their first row
    is, so one first-row period settles them.  Other periodic friezes get a
    full-row scan over one period.  Non-periodic friezes can only ever be
    window-verified: no finite scan proves a global claim for them.
    """
    report = frieze.period_report()
    s, t = report.s, report.t
    c, n, base = frieze.c, frieze.n, frieze.base_index
    monotonic = abs(s) == abs(t)
    if monotonic and is_integer(c):
        # first row integer <=> frieze integer (continuants have integer
        # coefficients, and every row value is a continuant of first-row
        # values); the first-row period is report.period, doubled when the
        # row is antiperiodic, but integrality is invariant under sign
        for i in range(base, base + report.period):
            x = frieze.first_row(i)
            if not is_integer(x):
                return IntegralityVerdict(NON_INTEGER, witness=(GridPoint(i, i), x))
        return IntegralityVerdict(ALL_INTEGER)
    if report.kind != NON_PERIODIC:
        for point, value in _scan_rows(frieze, report.period):
            if not is_integer(value):
                return IntegralityVerdict(NON_INTEGER, witness=(point, value))
        return IntegralityVerdict(ALL_INTEGER)
    window = (base, base + 2 * (n + 3) - 1)
    for point, value in _scan_rows(frieze, 2 * (n + 3)):
        if not is_integer(value):
            return IntegralityVerdict(NON_INTEGER, witness=(point, value))
    return IntegralityVerdict(WINDOW_VERIFIED, window=window)
