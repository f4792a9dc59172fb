"""Reference arithmetic and output checks for the benchmark.

Every check here runs outside the timed region.  The reference model shares
no first-row code with the program: it reads any first-row value in closed
form from the seed by the paper's pseudo-periodicity (x_{i+n+3} = (t/s) x_i
at even i and (s/t) x_i at odd i), where the program walks step by step.
Cells come from one tail recurrence per anchor, and sampled cells and every
integrality witness are checked again against ``continuant_det``, the
program's Gaussian-elimination oracle.  The analyze check rebuilds the whole
expected payload from this model and compares it key by key.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from cfrieze.continuant import continuant_det


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def cont(c: Fraction, xs) -> Fraction:
    """P_k(xs) by the tail recurrence."""
    prev, cur = Fraction(0), Fraction(1)
    for x in xs:
        prev, cur = cur, x * cur + c * prev
    return cur


def complete_free(c: Fraction, n: int, free: list) -> list[Fraction]:
    """n+1 free first-row values completed to a seed by two endpoint solves."""
    values = [Fraction(v) for v in free]
    for _ in range(2):
        window = values[-(n + 1):]
        values.append(-c * cont(c, window[:-1]) / cont(c, window))
    return values


def rational_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


class Ref:
    """Reference model of the frieze with the given seed."""

    def __init__(self, c, n: int, base: int, seed):
        self.c, self.n, self.base = Fraction(c), n, base
        self.seed = [Fraction(v) for v in seed]
        first = cont(self.c, self.seed[:n + 1])
        second = cont(self.c, self.seed[1:n + 2])
        self.s, self.t = (first, second) if base % 2 == 0 else (second, first)
        self._diag = {}

    def x(self, i: int) -> Fraction:
        m = self.n + 3
        q, r = divmod(i - self.base, m)
        v = self.seed[r]
        if q == 0:
            return v
        factor = self.t / self.s if (self.base + r) % 2 == 0 else self.s / self.t
        # m odd: the shift flips parity, and the two factors cancel in pairs
        return v * factor ** (q if m % 2 == 0 else q % 2)

    def diag(self, i: int) -> list[Fraction]:
        """f(i, i+k-1) for k = -1..n+2, at list index k+1."""
        out = self._diag.get(i)
        if out is None:
            prev, cur = Fraction(0), Fraction(1)
            out = [prev, cur]
            for m in range(self.n + 2):
                prev, cur = cur, self.x(i + m) * cur + self.c * prev
                out.append(cur)
            self._diag[i] = out
        return out

    def cell(self, i: int, j: int) -> Fraction:
        return self.diag(i)[j - i + 2]

    def det_cell(self, i: int, j: int) -> Fraction:
        return continuant_det(self.c, [self.x(m) for m in range(i, j + 1)])

    def admissible(self) -> bool:
        n, c, v = self.n, self.c, self.seed
        return (cont(c, v[:n + 2]) == 0 and cont(c, v[1:n + 3]) == 0
                and self.s != 0 and self.t != 0)

    # -- the decisions analyze reports ------------------------------------

    def kind_and_period(self):
        n, s, t = self.n, self.s, self.t
        if s == t:
            return "periodic", self._minimal_shift(_divisors(n + 3), 1)
        if s == -t:
            return "odd-rows-antiperiodic", self._minimal_shift(_divisors(n + 3), -1)
        if n % 2 == 0:
            return "periodic", self._minimal_shift(_divisors(2 * n + 6), 1)
        return "non-periodic", None

    def _minimal_shift(self, candidates, sign):
        # n+3 consecutive first-row values determine the frieze
        window = range(self.base, self.base + self.n + 3)
        for d in candidates:
            if all(self.x(i + d) == sign * self.x(i) for i in window):
                return d
        raise AssertionError("no period among the candidates")

    def even_row_period(self) -> int:
        n, base = self.n, self.base
        for d in _divisors(n + 3):
            if all(self.diag(i + d)[k + 1] == self.diag(i)[k + 1]
                   for i in range(base, base + n + 3)
                   for k in range(0, n + 2, 2)):
                return d
        raise AssertionError("even rows not (n+3)-periodic")

    def scan(self, width: int):
        """(i, j, value) over rows 1..n+1 for anchors base..base+width-1."""
        for i in range(self.base, self.base + width):
            row = self.diag(i)
            for k in range(1, self.n + 2):
                yield i, i + k - 1, row[k + 1]

    def induced_index(self, period):
        if not (self.s == self.t and self.c < 0):
            return None
        root = rational_sqrt(-self.c)
        if root is None:
            return None
        for i in range(self.base, self.base + period):
            if self.x(i) == root:
                return i
        return None

    def routes(self) -> set[str]:
        kind, period = self.kind_and_period()
        out = {kind}
        if abs(self.s) == abs(self.t) and self.c.denominator == 1:
            out.add("monotonic-integer-c")
        if self.s == self.t and self.c < 0:
            out.add("repetitive")
            if self.induced_index(period) is not None:
                out.add("c-induced")
        if self.c.denominator != 1:
            out.add("non-unit-den-c")
        return out

    def analyze_payload(self) -> dict:
        """The analyze payload this frieze must produce."""
        n, c, s, t, base = self.n, self.c, self.s, self.t, self.base
        kind, period = self.kind_and_period()
        monotonic = abs(s) == abs(t)
        repetitive = s == t and c < 0
        induced = self.induced_index(period)
        width = period if period is not None else 2 * (n + 3)

        witness = window = None
        if monotonic and c.denominator == 1:
            status = "all-integer"
            for i in range(base, base + period):
                if self.x(i).denominator != 1:
                    status, witness = "non-integer", (i, i, self.x(i))
                    break
        else:
            status = "all-integer" if period is not None else "window-verified"
            for i, j, v in self.scan(width):
                if v.denominator != 1:
                    status, witness = "non-integer", (i, j, v)
                    break
            if status == "window-verified":
                window = [base, base + width - 1]
        positive = all(v > 0 for _, _, v in self.scan(width))

        return {
            "convention": "s = f(i, i+n) at even i",
            "s": str(s),
            "t": str(t),
            "periodicity": {
                "kind": kind,
                "period": period,
                "even_row_period": self.even_row_period(),
                "odd_row_scaling_even_anchor": str((-c) ** (n + 1) / (t * t)),
                "odd_row_scaling_odd_anchor": str((-c) ** (n + 1) / (s * s)),
            },
            "classification": {
                "monotonic": monotonic,
                "repetitive": repetitive,
                "alternating": monotonic and c == 1,
                "c_induced": induced is not None,
                "induced_index": induced,
            },
            "integrality": {
                "status": status,
                "witness": None if witness is None else {
                    "i": witness[0], "j": witness[1], "value": str(witness[2])},
                "window": window,
            },
            "positive": positive,
        }

    def descriptor(self) -> dict:
        return {"base_index": self.base, "c": str(self.c), "n": self.n,
                "seed": [str(v) for v in self.seed]}


# -- checks: each returns None, or a one-line reason ---------------------------

def _diff(expected, got, path="") -> str | None:
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            if key not in expected or key not in got:
                return f"key {path}{key} missing on one side"
            reason = _diff(expected[key], got[key], f"{path}{key}.")
            if reason:
                return reason
        return None
    if expected != got:
        return f"{path.rstrip('.')}: expected {expected!r}, got {got!r}"
    return None


def check_analyze(ref: Ref, stdout: str, rng) -> str | None:
    got = json.loads(stdout)
    expected = ref.analyze_payload()
    reason = _diff(expected, got)
    if reason:
        return reason
    if ref.s * ref.t != (-ref.c) ** (ref.n + 1):
        return "s*t != (-c)^(n+1)"
    witness = got["integrality"]["witness"]
    if witness is not None:
        i, j = witness["i"], witness["j"]
        if ref.det_cell(i, j) != Fraction(witness["value"]):
            return f"integrality witness ({i}, {j}) disagrees with continuant_det"
    width = got["periodicity"]["period"] or 2 * (ref.n + 3)
    cells = list(ref.scan(width))
    if not got["positive"]:
        i, j, _ = next(p for p in cells if p[2] <= 0)
        if ref.det_cell(i, j) > 0:
            return f"positivity witness ({i}, {j}) is positive by continuant_det"
    return check_sampled(ref, [(i, j) for i, j, _ in cells], rng)


def check_sampled(ref: Ref, points, rng, samples: int = 2) -> str | None:
    """Sampled cells against continuant_det."""
    for i, j in rng.sample(points, min(samples, len(points))):
        if j - i + 1 >= 1 and ref.cell(i, j) != ref.det_cell(i, j):
            return f"cell ({i}, {j}) disagrees with continuant_det"
    return None


def check_mesh(c: Fraction, cells: dict) -> str | None:
    """Every diamond inside the rendered window obeys the mesh rule."""
    for (i, j), v in cells.items():
        corners = ((i, j - 1), (i + 1, j), (i + 1, j - 1))
        if v is None or not all(p in cells for p in corners):
            continue
        lhs = cells[i, j - 1] * cells[i + 1, j] - cells[i + 1, j - 1] * v
        if lhs != (-c) ** (j - i):
            return f"mesh rule fails at ({i}, {j})"
    return None


def check_window(ref: Ref, got: dict, start: int, cols: int, rng) -> str | None:
    """A rendered window {(i, j): value} against the reference, in full."""
    expected = {(i, i + k - 1): ref.cell(i, i + k - 1)
                for k in range(-1, ref.n + 3) for i in range(start, start + cols)}
    if set(got) != set(expected):
        return "rendered window covers the wrong cells"
    for point, value in expected.items():
        if got[point] != value:
            return f"cell {point}: expected {value}, got {got[point]}"
    return check_mesh(ref.c, got) or check_sampled(ref, list(got), rng)


def _parse_rat(text: str) -> Fraction:
    value = Fraction(text)
    if str(value) != text:
        raise ValueError(f"non-canonical rational {text!r}")
    return value


def parse_tsv(stdout: str) -> dict:
    cells = {}
    for line in stdout.splitlines():
        i, j, value = line.split("\t")
        cells[int(i), int(j)] = _parse_rat(value)
    return cells


def check_render_tsv(ref: Ref, stdout: str, start: int, cols: int, rng):
    lines = stdout.splitlines()
    order = [(i, i + k - 1) for k in range(-1, ref.n + 3)
             for i in range(start, start + cols)]
    if [tuple(map(int, ln.split("\t")[:2])) for ln in lines] != order:
        return "tsv rows are not in row-major window order"
    return check_window(ref, parse_tsv(stdout), start, cols, rng)


def check_render_json(ref: Ref, stdout: str, start: int, cols: int, rng):
    got = json.loads(stdout)
    head = {"c": str(ref.c), "n": ref.n, "from": start, "cols": cols}
    if {k: got.get(k) for k in head} != head:
        return "render header differs"
    if [row["k"] for row in got["rows"]] != list(range(-1, ref.n + 3)):
        return "render rows out of order"
    cells = {(cell["i"], cell["j"]): _parse_rat(cell["value"])
             for row in got["rows"] for cell in row["cells"]}
    return check_window(ref, cells, start, cols, rng)


def check_render_text(ref: Ref, stdout: str, start: int, cols: int) -> str | None:
    """Each text line lists, left to right, the row's cells whose diagonal
    i+j falls in the window; the exact layout is covered by the digest."""
    lines = stdout.split("\n")
    if lines[-1] != "" or len(lines) != ref.n + 5:
        return "text render has the wrong number of lines"
    d0, width = 2 * start - 2, 2 * cols
    for k, line in zip(range(-1, ref.n + 3), lines):
        expected = [str(ref.cell(i, i + k - 1))
                    for i in range(start - ref.n - 3, start + cols + 2)
                    if d0 <= 2 * i + k - 1 < d0 + width]
        if line.split() != expected:
            return f"text row {k} differs"
    return None


def check_descriptor(expected: dict, text: str) -> str | None:
    return _diff(expected, json.loads(text))


def check_same_frieze(ref: Ref, text: str) -> str | None:
    """A descriptor whose seed lies on the reference frieze's first row."""
    got = json.loads(text)
    if (got["c"], got["n"]) != (str(ref.c), ref.n):
        return "descriptor has the wrong parameters"
    base = got["base_index"]
    for m, value in enumerate(got["seed"]):
        if _parse_rat(value) != ref.x(base + m):
            return f"seed value at {base + m} is off the reference first row"
    return None


def identity_count(max_k: int) -> int:
    """Number of lines ``verify --identities --max-k max_k`` prints."""
    concat = sum(max_k - k for k in range(1, max_k))
    return concat + (max_k - 2) + (max_k - 1) + max_k + 2 * (max_k + 1) + (max_k + 1)


def check_verify(stdout: str, max_k: int) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != identity_count(max_k):
        return f"verify printed {len(lines)} lines"
    bad = [ln for ln in lines if not ln.startswith("ok ")]
    return f"verify line not ok: {bad[0]}" if bad else None
