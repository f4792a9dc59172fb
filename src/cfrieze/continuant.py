"""Continuant polynomials with parameter c.

The family is defined by the recurrence

    P_k(x_1, ..., x_k) = x_k * P_{k-1}(x_1, ..., x_{k-1})
                         + c * P_{k-2}(x_1, ..., x_{k-2}),
    P_{-1} = 0,  P_0 = 1,

with c a fixed nonzero scalar.  c = 1 gives Euler's continuants, c = -1 the
signed continuants behind classical frieze patterns.  This module provides
four independent numeric evaluation routes (tail recurrence, tridiagonal
determinant, front recurrence, continued fraction), the two-parameter
variant b*x_k*P'_{k-1} + c*P'_{k-2}, the exact symbolic form, and mechanical
verification of the family's identities by zero-polynomial expansion.

The determinant route deliberately shares no code with the recurrences: it
runs Gaussian elimination over exact rationals on the tridiagonal matrix
with diagonal x_1..x_k, superdiagonal -c and subdiagonal 1, so it can serve
as an independent oracle for the others.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import BoundExceeded, ZeroDenominatorInCF, ZeroParameter
from .poly import C, D, Poly, X

#: Default cap on symbolic expansion order; P_8 has 34 terms and covers all
#: four residues of k mod 4 twice.
SYMBOLIC_BOUND = 8


def _coerce(c, xs) -> tuple[Fraction, list[Fraction]]:
    c = Fraction(c)
    if c == 0:
        raise ZeroParameter("parameter c must be nonzero")
    return c, [x if isinstance(x, Fraction) else Fraction(x) for x in xs]


# -- numeric evaluation -----------------------------------------------------

def continuant_prefixes(c, xs: Sequence) -> list[Fraction]:
    """[P_{-1}, P_0, P_1(x_1), ..., P_k(x_1..x_k)] by one tail recurrence."""
    c, xs = _coerce(c, xs)
    out = [Fraction(0), Fraction(1)]
    for x in xs:
        out.append(x * out[-1] + c * out[-2])
    return out


def continuant_eval(c, xs: Sequence) -> Fraction:
    """P_k(xs) by the tail recurrence; linear in k, exact."""
    return continuant_prefixes(c, xs)[-1]


def continuant_front_eval(c, xs: Sequence) -> Fraction:
    """P_k(xs) by the front recurrence P_k = x_1*P_{k-1}(x_2..) + c*P_{k-2}(x_3..)."""
    c, xs = _coerce(c, xs)
    after, cur = Fraction(0), Fraction(1)  # suffix continuants, shrinking window
    for x in reversed(xs):
        after, cur = cur, x * cur + c * after
    return cur


def continuant_det(c, xs: Sequence) -> Fraction:
    """P_k(xs) as the k x k tridiagonal determinant, by Gaussian elimination.

    Independent oracle: no code shared with the recurrence evaluators.
    """
    c, xs = _coerce(c, xs)
    k = len(xs)
    if k == 0:
        return Fraction(1)
    m = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = xs[i]
        if i + 1 < k:
            m[i][i + 1] = -c
            m[i + 1][i] = Fraction(1)
    det = Fraction(1)
    for col in range(k):
        pivot_row = None
        for row in range(col, k):
            if m[row][col] != 0:
                pivot_row = row
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for row in range(col + 1, k):
            if m[row][col] != 0:
                factor = m[row][col] / pivot
                for j in range(col, k):
                    m[row][j] -= factor * m[col][j]
    return det


def continued_fraction_eval(c, xs: Sequence) -> Fraction:
    """x_1 + c/(x_2 + c/(... + c/x_k)) = P_k(x_1..x_k) / P_{k-1}(x_2..x_k).

    Folds from the back; every intermediate value is a quotient of suffix
    continuants, so a zero intermediate names the offending suffix.
    """
    c, xs = _coerce(c, xs)
    if not xs:
        raise ZeroDenominatorInCF("empty window: P_{-1} = 0 denominator")
    value = xs[-1]
    for pos in range(len(xs) - 2, -1, -1):
        if value == 0:
            raise ZeroDenominatorInCF(
                f"suffix continuant starting at position {pos + 2} vanishes"
            )
        value = xs[pos] + c / value
    return value


def biparam_eval(b, c, xs: Sequence) -> Fraction:
    """Two-parameter variant P'_k = b*x_k*P'_{k-1} + c*P'_{k-2}.

    Reduces to the one-parameter family: P'_k(xs) = P_k(c, b*xs).
    """
    b = Fraction(b)
    if b == 0:
        raise ZeroParameter("parameter b must be nonzero")
    c, xs = _coerce(c, xs)
    prev, cur = Fraction(0), Fraction(1)
    for x in xs:
        prev, cur = cur, b * x * cur + c * prev
    return cur


# -- symbolic form ----------------------------------------------------------

def continuant_sym(k: int, start: int = 1, bound: int = SYMBOLIC_BOUND) -> Poly:
    """The exact polynomial P_k in c and x_start..x_{start+k-1}.

    Term count grows like a Fibonacci number, hence the bound.
    """
    if not 0 <= k <= bound:
        raise BoundExceeded(f"symbolic order {k} outside [0, {bound}]")
    prev, cur = Poly.zero(), Poly.const(1)
    cpoly = Poly.variable(C)
    for m in range(1, k + 1):
        prev, cur = cur, Poly.variable(X(start + m - 1)) * cur + cpoly * prev
    return cur


def flip_sign(k: int, i: int) -> int:
    """Sign relating P_k^{-c} on sign-flipped variables to P_k^c.

    Flipping c and every odd-indexed variable (x'_j = -x_j for j odd,
    x'_j = x_j for j even) preserves P_k up to this sign, which depends on
    k mod 4 and the parity of the window start i.
    """
    r = k % 4
    if r == 0:
        return 1
    if r == 2:
        return -1
    if r == 1:
        return 1 if i % 2 == 0 else -1
    return -1 if i % 2 == 0 else 1


# -- identity verification --------------------------------------------------
#
# Each verifier expands both sides symbolically and returns None when their
# difference is the zero polynomial, else the nonzero difference as a
# counterexample certificate.

def verify_concat(k: int, l: int, bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """P_{k+l}(x_1..) = P_k(x_1..)P_l(x_{k+1}..) + c P_{k-1}(x_1..)P_{l-1}(x_{k+2}..)."""
    if k < 1 or l < 1:
        raise BoundExceeded("concatenation identity needs k, l >= 1")
    lhs = continuant_sym(k + l, 1, bound)
    rhs = (
        continuant_sym(k, 1, bound) * continuant_sym(l, k + 1, bound)
        + Poly.variable(C)
        * continuant_sym(k - 1, 1, bound)
        * continuant_sym(l - 1, k + 2, bound)
    )
    diff = lhs - rhs
    return None if diff.is_zero() else diff


def verify_modular(k: int, bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """P_k(x_1..x_k)P_k(x_2..x_{k+1}) - P_{k-1}(x_2..x_k)P_{k+1}(x_1..x_{k+1}) = (-c)^k."""
    if k < 1:
        raise BoundExceeded("modular identity needs k >= 1")
    lhs = continuant_sym(k, 1, bound) * continuant_sym(k, 2, bound) - continuant_sym(
        k - 1, 2, bound
    ) * continuant_sym(k + 1, 1, bound)
    rhs = (-Poly.variable(C)) ** k
    diff = lhs - rhs
    return None if diff.is_zero() else diff


def verify_scaling(k: int, bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """P_k with parameter c*d^2 on (d*x_1, ..., d*x_k) equals d^k * P_k."""
    p = continuant_sym(k, 1, bound)
    d = Poly.variable(D)
    mapping = {C: Poly.variable(C) * d * d}
    for j in range(1, k + 1):
        mapping[X(j)] = d * Poly.variable(X(j))
    diff = p.substitute(mapping) - d ** k * p
    return None if diff.is_zero() else diff


def verify_front(k: int, bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """P_k(x_1..x_k) = x_1 P_{k-1}(x_2..x_k) + c P_{k-2}(x_3..x_k)."""
    if k < 1:
        raise BoundExceeded("front recursion needs k >= 1")
    tail = continuant_sym(k - 2, 3, bound) if k >= 2 else Poly.zero()
    rhs = Poly.variable(X(1)) * continuant_sym(k - 1, 2, bound) + Poly.variable(C) * tail
    diff = continuant_sym(k, 1, bound) - rhs
    return None if diff.is_zero() else diff


def verify_signflip(k: int, start_parity: str = "odd",
                    bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """The mod-4 sign table for c -> -c with odd-indexed variables negated."""
    if start_parity not in ("odd", "even"):
        raise ValueError("start_parity must be 'odd' or 'even'")
    j = 1 if start_parity == "odd" else 2
    p = continuant_sym(k, j, bound)
    mapping = {C: -Poly.variable(C)}
    for m in range(j, j + k):
        if m % 2 == 1:
            mapping[X(m)] = -Poly.variable(X(m))
    diff = p.substitute(mapping) - flip_sign(k, j) * p
    return None if diff.is_zero() else diff


def verify_homogeneity(k: int, bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """Every monomial of P_k is homogeneous under both parity gradings.

    Grading A gives degree 1 to c and the even-indexed x's, 0 to the odd;
    grading B swaps the roles of even and odd.
    """
    p = continuant_sym(k, 1, bound)
    degrees_a, degrees_b = set(), set()
    for mono in p.terms:
        da = db = 0
        for var, exp in mono:
            if var == C:
                da += exp
                db += exp
            elif var[0] == "x":
                if var[1] % 2 == 0:
                    da += exp
                else:
                    db += exp
        degrees_a.add(da)
        degrees_b.add(db)
    ok = len(degrees_a) <= 1 and len(degrees_b) <= 1
    return None if ok else p


def verify_identity(kind: str, k: int, l: Optional[int] = None,
                    start_parity: str = "odd",
                    bound: int = SYMBOLIC_BOUND) -> Optional[Poly]:
    """Dispatch by identity name; returns None on success, a certificate else."""
    if kind == "concat":
        if l is None:
            raise ValueError("concat needs both k and l")
        return verify_concat(k, l, bound)
    if kind == "modular":
        return verify_modular(k, bound)
    if kind == "scaling":
        return verify_scaling(k, bound)
    if kind == "front":
        return verify_front(k, bound)
    if kind == "signflip":
        return verify_signflip(k, start_parity, bound)
    if kind == "homogeneity":
        return verify_homogeneity(k, bound)
    raise ValueError(f"unknown identity {kind!r}")


def identity_suite(max_k: int = SYMBOLIC_BOUND):
    """The full battery of identity checks up to order max_k.

    Yields (label, certificate) pairs, certificate None on success:
    concatenation for k+l <= max_k, modular and scaling for k <= max_k-2,
    front, sign flip (both window parities) and homogeneity for k <= max_k.
    """
    results = []
    for k in range(1, max_k):
        for l in range(1, max_k - k + 1):
            results.append((f"concat({k},{l})", verify_concat(k, l, max_k)))
    for k in range(1, max_k - 1):
        results.append((f"modular({k})", verify_modular(k, max_k)))
    for k in range(0, max_k - 1):
        results.append((f"scaling({k})", verify_scaling(k, max_k)))
    for k in range(1, max_k + 1):
        results.append((f"front({k})", verify_front(k, max_k)))
    for k in range(0, max_k + 1):
        for parity in ("odd", "even"):
            results.append(
                (f"signflip({k},{parity})", verify_signflip(k, parity, max_k))
            )
    for k in range(0, max_k + 1):
        results.append((f"homogeneity({k})", verify_homogeneity(k, max_k)))
    return results
