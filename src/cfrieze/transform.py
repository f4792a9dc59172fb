"""Frieze-generating transformations.

Three families:

* sign flip: negating every odd-indexed first-row value turns a c-frieze
  into a (-c)-frieze whose values agree with the original up to a sign
  depending only on the row order mod 4 and the anchor parity;
* scaling: multiplying the first row by d turns a c-frieze into a
  (c*d^2)-frieze with values scaled by d^(row order);
* order shift: a repetitive frieze (s = t, c < 0) whose parameter has a
  rational root r = (-c)^(1/2) lifts to a c-induced frieze one order higher
  by splicing r into the first-row cycle and adding r to both splice
  neighbors.  Deleting an r again and subtracting it from the neighbors
  lowers the order and inverts the lift exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .continuant import flip_sign
from .errors import (
    InternalError,
    IrrationalRoot,
    NotASquare,
    NotInduced,
    NotRepetitive,
    OrderTooSmall,
    ZeroScale,
)
from .exactnum import sqrt_exact
from .frieze import (
    FailurePoint,
    Frieze,
    FriezeParams,
    PolygonalSequence,
    seed_validate,
)


def _validated(params: FriezeParams, base: int, values: tuple,
               what: str) -> PolygonalSequence:
    violations = seed_validate(params, values, base)
    if violations:
        raise InternalError(f"{what} produced an invalid seed: {violations}")
    return PolygonalSequence(params, base, values)


def flip_sign_seed(seed: PolygonalSequence) -> PolygonalSequence:
    """Negate the odd-indexed first-row values; valid for parameter -c.

    Involution: applying it twice returns the original seed.
    """
    params = seed.params
    flipped = tuple(
        -v if (seed.base_index + m) % 2 else v for m, v in enumerate(seed.values)
    )
    new_params = FriezeParams(-params.c, params.n)
    return _validated(new_params, seed.base_index, flipped, "sign flip")


def flip_sign_value_check(f: Frieze, f_flipped: Frieze, i_lo: int,
                          i_hi: int) -> Optional[FailurePoint]:
    """Verify f'(i, j) = sign(row mod 4, parity of i) * f(i, j) on a window."""
    for i in range(i_lo, i_hi + 1):
        pairs = zip(f.diagonal(i), f_flipped.diagonal(i))
        for k, (value, got) in enumerate(pairs, start=-1):
            expected = flip_sign(k, i) * value
            if got != expected:
                return FailurePoint(i, i + k - 1, "sign-flip", got, expected)
    return None


def scale_seed(seed: PolygonalSequence, d) -> PolygonalSequence:
    """Scale the first row by d; valid for parameter c*d^2.

    Values of the scaled frieze satisfy f'(i, j) = d^(j-i+1) * f(i, j);
    scaling by 1/d inverts.
    """
    d = Fraction(d)
    if d == 0:
        raise ZeroScale("scale factor must be nonzero")
    params = seed.params
    new_params = FriezeParams(params.c * d * d, params.n)
    scaled = tuple(d * v for v in seed.values)
    return _validated(new_params, seed.base_index, scaled, "scaling")


def _repetitive_root(params: FriezeParams, s: Fraction, t: Fraction) -> Fraction:
    if s != t or params.c >= 0:
        raise NotRepetitive("transformation needs s = t and c < 0")
    try:
        return sqrt_exact(-params.c)
    except NotASquare:
        raise IrrationalRoot(f"-c = {-params.c} is not a rational square") from None


def gamma(seed: PolygonalSequence) -> PolygonalSequence:
    """Lift a repetitive seed of order n to a c-induced seed of order n+1.

    Appends r = (-c)^(1/2) after the seed and adds r to the two entries that
    become its cyclic neighbors (the first and last of the original seed).
    The image frieze is c-induced with penultimate-row value r*s.
    """
    frieze = Frieze(seed)
    r = _repetitive_root(seed.params, *frieze.s_t())
    v = seed.values
    lifted = (v[0] + r,) + v[1:-1] + (v[-1] + r, r)
    new_params = FriezeParams(seed.params.c, seed.params.n + 1)
    return _validated(new_params, seed.base_index, lifted, "order lift")


def gamma_inverse(frieze: Frieze, j0: int) -> Frieze:
    """Drop the induced entry at index j0 and lower the order by one.

    The first row of a c-induced frieze carries r = (-c)^(1/2) at j0 and,
    being periodic with period dividing n+3, again at j0 + n+3.  The window
    strictly between those two occurrences, with r subtracted from both
    endpoints, is a repetitive seed of order n-1.  Rebasing it to j0-n-2
    makes the round trip with the order lift the pointwise identity.
    """
    n = frieze.n
    if n < 2:
        raise OrderTooSmall("order lowering needs n >= 2")
    s, t = frieze.s_t()
    c = frieze.c
    if s != t or c >= 0:
        raise NotInduced("frieze is not repetitive, hence not c-induced")
    try:
        r = sqrt_exact(-c)
    except NotASquare:
        raise NotInduced(f"-c = {-c} is not a rational square") from None
    if frieze.first_row(j0) != r:
        raise NotInduced(
            f"first-row value at {j0} is {frieze.first_row(j0)}, not {r}"
        )
    window = [frieze.first_row(j0 + m) for m in range(1, n + 3)]
    window[0] -= r
    window[-1] -= r
    new_params = FriezeParams(c, n - 1)
    seed = _validated(new_params, j0 - n - 2, tuple(window), "order lowering")
    return Frieze(seed, validate=False)
