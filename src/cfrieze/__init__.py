"""Exact-arithmetic c-friezes.

c-friezes generalize classical frieze patterns: the defining recurrence of
the continuant polynomials carries a nonzero parameter c, and the mesh
(unimodular) rule becomes f(i,j-1)f(i+1,j) - f(i+1,j-1)f(i,j) = (-c)^(j-i).
Everything in this package runs over exact rationals: construction from
seeds, band queries, periodicity classification, sections and
reconstruction, positivity/integrality analysis, and the sign-flip /
scaling / order-shift transformations, plus symbolic verification of the
continuant identities that make it all tick.
"""

from .errors import (
    BoundExceeded,
    DegenerateSeed,
    DivisorZero,
    FriezeError,
    InconsistentSection,
    InternalError,
    InvalidSection,
    InvalidSeed,
    IrrationalRoot,
    MalformedInput,
    MalformedRational,
    NotASquare,
    NotInduced,
    NotMonotonic,
    NotRepetitive,
    OrderTooSmall,
    OutOfBand,
    PreconditionBreach,
    ZeroDenominator,
    ZeroDenominatorInCF,
    ZeroOnSection,
    ZeroParameter,
    ZeroPivot,
    ZeroScale,
)
from .exactnum import Rat, divides, is_integer, rat_parse, rat_str, sqrt_exact
from .poly import Poly
from .continuant import (
    SYMBOLIC_BOUND,
    biparam_eval,
    continuant_det,
    continuant_eval,
    continuant_front_eval,
    continuant_prefixes,
    continuant_sym,
    continued_fraction_eval,
    flip_sign,
    identity_suite,
    verify_identity,
)
from .frieze import (
    FailurePoint,
    Frieze,
    FriezeParams,
    GridPoint,
    NON_PERIODIC,
    ODD_ROWS_ANTIPERIODIC,
    PERIODIC,
    PeriodicityReport,
    PolygonalSequence,
    Violation,
    frieze_from_dict,
    frieze_to_dict,
    seed_from_free,
    seed_validate,
)
from .section import (
    DOWN_RIGHT,
    Section,
    SectionValues,
    UP_RIGHT,
    extract_section,
    oblique_section,
    reconstruct,
    recover_x,
    section_values_from_dict,
    section_values_to_dict,
)
from .analysis import (
    ALL_INTEGER,
    Classification,
    IntegralityVerdict,
    NON_INTEGER,
    WINDOW_VERIFIED,
    classify,
    divisibility_condition,
    integrality_second_condition,
    is_integer_frieze,
    is_positive,
    positivity_from_section,
)
from .transform import (
    flip_sign_seed,
    flip_sign_value_check,
    gamma,
    gamma_inverse,
    scale_seed,
)

__version__ = "0.1.0"
