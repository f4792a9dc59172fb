"""c-friezes of order n over the rationals.

The band of order n is the set of integer pairs (i, j) with -2 <= j-i <= n+1,
organized into rows k = j-i+1 running from -1 to n+2.  A frieze is the map

    f(i, j) = P_{j-i+1}(x_i, ..., x_j)

built from a bi-infinite sequence {x_i} that is n-admissible: every window
of n+2 consecutive values satisfies P_{n+2} = 0.  Rows -1 and n+2 are then
identically zero, row 0 is ones, row 1 is the x_i themselves, and row n+1
alternates two values s, t with s*t = (-c)^{n+1}.

The convention throughout is the classical one: s sits at even anchors,
s = f(2i, 2i+n) and t = f(2i+1, 2i+n+1).

A frieze is determined by any n+3 consecutive first-row values (its seed).
Beyond the seed the first row follows in closed form from pseudo-periodicity:
x_{i+n+3} = (t/s) x_i at even i and (s/t) x_i at odd i, because the odd-row
factor (-c)^{n+1}/s^2 equals t/s when s*t = (-c)^{n+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .continuant import continuant_eval, continuant_prefixes
from .errors import InvalidSeed, DegenerateSeed, InternalError, OutOfBand, ZeroParameter
from .exactnum import rat_parse, rat_str


class GridPoint(NamedTuple):
    i: int
    j: int

    @property
    def row(self) -> int:
        return self.j - self.i + 1


@dataclass(frozen=True)
class FriezeParams:
    c: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c == 0:
            raise ZeroParameter("frieze parameter c must be nonzero")
        if self.n < 1:
            raise ValueError("frieze order n must be >= 1")


@dataclass(frozen=True)
class PolygonalSequence:
    """n+3 consecutive first-row values, the canonical seed of a frieze."""

    params: FriezeParams
    base_index: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != self.params.n + 3:
            raise ValueError(
                f"seed needs n+3 = {self.params.n + 3} values, got {len(self.values)}"
            )


@dataclass(frozen=True)
class Violation:
    name: str
    residual: Fraction

    def __str__(self) -> str:
        return f"{self.name} (residual {rat_str(self.residual)})"


def seed_validate(params: FriezeParams, values: Sequence,
                  base_index: int = 1) -> list[Violation]:
    """Check both admissibility windows and the nonzero penultimate values.

    Returns the list of violations; empty means the seed is valid.  Once both
    windows vanish, s*t = (-c)^{n+1} holds automatically, so the two window
    residuals plus the two nonzero checks cover every seed invariant.
    """
    n, c = params.n, params.c
    values = [Fraction(v) for v in values]
    if len(values) != n + 3:
        raise ValueError(f"seed needs n+3 = {n + 3} values, got {len(values)}")
    out = []
    for offset in (0, 1):
        window = values[offset:offset + n + 2]
        residual = continuant_eval(c, window)
        if residual != 0:
            lo = base_index + offset
            out.append(Violation(f"P_{n + 2}(x_{lo}..x_{lo + n + 1})", residual))
    for offset in (0, 1):
        pen = continuant_eval(c, values[offset:offset + n + 1])
        if pen == 0:
            lo = base_index + offset
            out.append(Violation(f"P_{n + 1}(x_{lo}..x_{lo + n}) = 0", pen))
    return out


def seed_from_free(params: FriezeParams, free: Sequence,
                   base_index: int = 1) -> PolygonalSequence:
    """Complete n+1 free first-row values to a full seed.

    Solves P_{n+2} = 0 twice for the missing endpoints.  The first divisor is
    P_{n+1}(free), the would-be row-(n+1) value: if it vanishes the seed is
    degenerate (it would force s*t = 0 against s*t = (-c)^{n+1} != 0).  The
    second divisor is then automatically nonzero.
    """
    n, c = params.n, params.c
    free = [Fraction(v) for v in free]
    if len(free) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} free values, got {len(free)}")
    values = list(free)
    for _ in range(2):
        window = values[-(n + 1):]
        pen = continuant_eval(c, window)
        if pen == 0:
            raise DegenerateSeed(
                f"P_{n + 1}{tuple(map(str, window))} = 0; row n+1 would vanish"
            )
        values.append(-c * continuant_eval(c, window[:-1]) / pen)
    return PolygonalSequence(params, base_index, tuple(values))


@dataclass(frozen=True)
class FailurePoint:
    i: int
    j: int
    relation: str
    lhs: Fraction
    rhs: Fraction


PERIODIC = "periodic"
ODD_ROWS_ANTIPERIODIC = "odd-rows-antiperiodic"
NON_PERIODIC = "non-periodic"


@dataclass(frozen=True)
class PeriodicityReport:
    kind: str
    period: Optional[int]
    s: Fraction
    t: Fraction
    even_row_period: int
    odd_row_scaling_even_anchor: Fraction
    odd_row_scaling_odd_anchor: Fraction


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


class Frieze:
    """A c-frieze of order n, an immutable view of its seed.

    Every first-row value is a closed-form function of the seed (see
    :meth:`first_row`); the only stored result is the periodicity report,
    computed once on first request and the same whichever call computes it.
    """

    def __init__(self, seed: PolygonalSequence, validate: bool = True):
        if validate:
            violations = seed_validate(seed.params, seed.values, seed.base_index)
            if violations:
                raise InvalidSeed(violations)
        self._seed = seed
        n, c, odd = seed.params.n, seed.params.c, seed.base_index % 2
        pens = [continuant_eval(c, seed.values[m:m + n + 1]) for m in (0, 1)]
        self._s, self._t = pens[odd], pens[1 - odd]
        self._rho = self._t / self._s
        self._report: Optional[PeriodicityReport] = None

    # -- basic accessors -------------------------------------------------

    @property
    def params(self) -> FriezeParams:
        return self._seed.params

    @property
    def c(self) -> Fraction:
        return self._seed.params.c

    @property
    def n(self) -> int:
        return self._seed.params.n

    @property
    def seed(self) -> PolygonalSequence:
        return self._seed

    @property
    def base_index(self) -> int:
        return self._seed.base_index

    @property
    def s(self) -> Fraction:
        return self._s

    @property
    def t(self) -> Fraction:
        return self._t

    def s_t(self) -> tuple[Fraction, Fraction]:
        """(s, t) with s anchored at even indices: s = f(2i, 2i+n)."""
        return self._s, self._t

    # -- first row -------------------------------------------------------

    def first_row(self, i: int) -> Fraction:
        """x_i = seed[r] * rho^(+-e), q, r = divmod(i - base, n+3), rho = t/s:
        e = q for n odd; for n even the shift by n+3 flips parity, the factors
        cancel in pairs and e = q mod 2.  The sign is + when base + r is even."""
        seed = self._seed
        n, base = seed.params.n, seed.base_index
        q, r = divmod(i - base, n + 3)
        if n % 2 == 0:
            q %= 2
        if (base + r) % 2:
            q = -q
        return seed.values[r] * self._rho ** q if q else seed.values[r]

    def first_row_window(self, lo: int, hi: int) -> list[Fraction]:
        return [self.first_row(i) for i in range(lo, hi + 1)]

    # -- band queries -----------------------------------------------------

    def diagonal(self, i: int) -> list[Fraction]:
        """f(i, i+k-1) for k = -1..n+2, by one sweep over x_i .. x_{i+n}.

        Entry k+1 holds row k; row n+2 is exactly 0.
        """
        xs = self.first_row_window(i, i + self.n)
        return continuant_prefixes(self.c, xs) + [Fraction(0)]

    def value(self, i: int, j: int) -> Fraction:
        """f(i, j) = P_{j-i+1}(x_i .. x_j); rows -1 and n+2 are exactly 0."""
        row = j - i + 1
        if not -1 <= row <= self.n + 2:
            raise OutOfBand(f"({i}, {j}) has row {row}, outside [-1, {self.n + 2}]")
        return self.diagonal(i)[row + 1]

    def value_at(self, point) -> Fraction:
        return self.value(point[0], point[1])

    # -- local relations ----------------------------------------------------

    def check_local_relations(self, i_lo: int, i_hi: int) -> Optional[FailurePoint]:
        """Verify the mesh rule, the transvection relations and the backward
        row expansion over anchors in [i_lo, i_hi], exactly.

        Returns None when everything holds, else the first failing point.
        A failure signals an implementation bug, never a property of a
        valid frieze.
        """
        n, c = self.n, self.c
        s, t = self._s, self._t
        diags = {i: self.diagonal(i) for i in range(i_lo - 2, i_hi + n + 3)}

        def f(i, j):
            return diags[i][j - i + 2]

        for a in range(i_lo, i_hi + 1):
            # mesh rule: f(i,j-1)f(i+1,j) - f(i+1,j-1)f(i,j) = (-c)^(j-i)
            for m in range(0, n + 2):
                j = a + m
                lhs = f(a, j - 1) * f(a + 1, j) - f(a + 1, j - 1) * f(a, j)
                rhs = (-c) ** m
                if lhs != rhs:
                    return FailurePoint(a, j, "mesh", lhs, rhs)
            # transvection: row k against row n-k+1, pivot t at even anchors
            pivot = t if a % 2 == 0 else s
            for k in range(0, n + 2):
                lhs = f(a, a + k - 1)
                rhs = (-c) ** k / pivot * f(a + k + 1, a + n + 1)
                if lhs != rhs:
                    return FailurePoint(a, a + k - 1, "transvection", lhs, rhs)
            # backward row expansion: row k from rows k+1, k+2 and row n
            for k in range(0, n + 1):
                lhs = f(a, a + k - 1)
                rhs = (
                    f(a - 1, a + k - 1) * f(a, a + n - 1) / pivot
                    + f(a - 2, a + k - 1) / c
                )
                if lhs != rhs:
                    return FailurePoint(a, a + k - 1, "backward-row", lhs, rhs)
        return None

    # -- periodicity --------------------------------------------------------

    def _minimal_shift(self, candidates: list[int], window: int, sign: int) -> int:
        base = self.base_index
        for d in candidates:
            if all(
                self.first_row(i + d) == sign * self.first_row(i)
                for i in range(base, base + window)
            ):
                return d
        raise InternalError("no candidate period verified; theory violated")

    def period_report(self) -> PeriodicityReport:
        """Classify the frieze's periodicity.

        s = t: periodic, minimal period a divisor of n+3.  s = -t: odd-order
        rows antiperiodic (even-order rows periodic) with period a divisor of
        n+3.  Otherwise periodic with period dividing 2n+6 when n is even,
        and not periodic at all when n is odd: each row-k value with k odd is
        rescaled by (-c)^{n+1}/t^2 (even anchors) or (-c)^{n+1}/s^2 (odd
        anchors) under a shift by n+3.

        Minimality is a brute-force divisor scan over one fundamental window
        of the first row; first-row equality suffices because the frieze is
        determined by its first row.  The report is computed once and
        stored; later calls return the same object.
        """
        if self._report is not None:
            return self._report
        n = self.n
        s, t = self._s, self._t
        if s == t:
            kind = PERIODIC
            period = self._minimal_shift(_divisors(n + 3), n + 3, 1)
        elif s == -t:
            kind = ODD_ROWS_ANTIPERIODIC
            period = self._minimal_shift(_divisors(n + 3), n + 3, -1)
        elif n % 2 == 0:
            kind = PERIODIC
            period = self._minimal_shift(_divisors(2 * n + 6), 2 * n + 6, 1)
        else:
            kind = NON_PERIODIC
            period = None
        scaling_even = (-self.c) ** (n + 1) / (t * t)
        scaling_odd = (-self.c) ** (n + 1) / (s * s)
        self._report = PeriodicityReport(
            kind=kind,
            period=period,
            s=s,
            t=t,
            even_row_period=self._even_row_period(),
            odd_row_scaling_even_anchor=scaling_even,
            odd_row_scaling_odd_anchor=scaling_odd,
        )
        return self._report

    def _even_row_period(self) -> int:
        """Minimal shift fixing every even-order row; divides n+3."""
        n, base = self.n, self.base_index
        # diagonal entries 1, 3, 5, .. hold the even rows 0, 2, 4, .. <= n+1
        rows = [self.diagonal(i)[1:n + 3:2] for i in range(base, base + 2 * n + 6)]
        for d in _divisors(n + 3):
            if all(rows[m + d] == rows[m] for m in range(n + 3)):
                return d
        raise InternalError("even rows not (n+3)-periodic; theory violated")


# -- descriptor (de)serialization --------------------------------------------

def frieze_to_dict(frieze: Frieze) -> dict:
    """Frieze descriptor: parameters, base index and the exact seed."""
    return {
        "c": rat_str(frieze.c),
        "n": frieze.n,
        "base_index": frieze.base_index,
        "seed": [rat_str(v) for v in frieze.seed.values],
    }


def frieze_from_dict(data: dict) -> Frieze:
    """Rebuild a frieze from its descriptor, re-validating the seed."""
    try:
        c = rat_parse(str(data["c"]))
        n = data["n"]
        base = data.get("base_index", 1)
        raw = data["seed"]
    except KeyError as exc:
        raise InvalidSeed([], f"descriptor missing field {exc}") from None
    if type(n) is not int or n < 1 or type(base) is not int:
        raise InvalidSeed([], "descriptor needs an integer n >= 1 and base_index")
    if not isinstance(raw, list) or len(raw) != n + 3:
        raise InvalidSeed(
            [], f"descriptor seed must list exactly n+3 = {n + 3} values"
        )
    values = tuple(rat_parse(str(v)) for v in raw)
    params = FriezeParams(c, n)
    return Frieze(PolygonalSequence(params, base, values))
