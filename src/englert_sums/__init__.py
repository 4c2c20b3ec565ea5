"""Exact closed forms for a catalogue of generalized Fourier series.

Twenty-four related families of trigonometric series over k or 2k+1
denominators, with alternating and non-alternating signs, evaluate here
through exact rational bracket polynomials, elementary trig/log forms,
or polylogarithms on the unit circle.  A brute-force summation oracle
in englert_sums.oracle provides independent ground truth for every
closed form.  The oracle needs numpy and loads on first use, so
importing the package and evaluating closed forms does not load numpy.
"""

import importlib

from .bernoulli import abs_bernoulli_term, bernoulli
from .bracket import centered, frac
from .coeffs import (
    BracketPoly,
    IntegratedPoly,
    c_table,
    constraint_check,
    eval_poly,
    integrate_bracket_poly,
    poly_C,
    poly_S,
    sin_poly_variant,
)
from .errors import (
    CapacityError,
    DomainError,
    EnglertSumsError,
    InternalConsistencyError,
    JumpPointError,
    SingularPointError,
    ToleranceNotReachedError,
    UnsupportedOrderError,
    UsageError,
)
from .polylog import (
    LiValue,
    UnitCirclePoint,
    li_on_circle,
)
from .sums import (
    FAMILY_CODES,
    EvalResult,
    SingularSet,
    SumFamily,
    eval_family,
    eval_via_relation,
    is_supported,
    singular_points,
)

__version__ = "0.1.0"

# served from englert_sums.oracle when first read (PEP 562)
_ORACLE_NAMES = frozenset({
    "ArbitrationReport",
    "ArbitrationRow",
    "OracleReport",
    "arbitrate",
    "oracle",
    "oracle_eval",
    "partial_sum",
})


def __getattr__(name):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = importlib.import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)


__all__ = [
    "ArbitrationReport",
    "ArbitrationRow",
    "BracketPoly",
    "CapacityError",
    "DomainError",
    "EnglertSumsError",
    "EvalResult",
    "FAMILY_CODES",
    "IntegratedPoly",
    "InternalConsistencyError",
    "JumpPointError",
    "LiValue",
    "OracleReport",
    "SingularPointError",
    "SingularSet",
    "SumFamily",
    "ToleranceNotReachedError",
    "UnitCirclePoint",
    "UnsupportedOrderError",
    "UsageError",
    "abs_bernoulli_term",
    "arbitrate",
    "bernoulli",
    "c_table",
    "centered",
    "constraint_check",
    "eval_family",
    "eval_poly",
    "eval_via_relation",
    "frac",
    "integrate_bracket_poly",
    "is_supported",
    "li_on_circle",
    "oracle_eval",
    "partial_sum",
    "poly_C",
    "poly_S",
    "singular_points",
    "sin_poly_variant",
    "__version__",
]
