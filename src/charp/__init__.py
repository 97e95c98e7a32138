"""Exact prime-characteristic commutative algebra.

Finite-field arithmetic with Frobenius and p-th roots, sparse polynomial
rings, pushforward decomposition over the reduced-monomial basis, the
multiplier algebra of maps inverse to Frobenius (splittings, composition,
ideal compatibility), power-series-embedded discrete valuations with
certified precision, and evidence-backed excellence reports.

The series and valuation layers need numpy; they, and the names below that
live in them, are imported on first access, so that work without power
series never loads numpy.  Comparing two streams (`first_difference`,
`distinguishing_fraction`) reads only their coefficients, so those names
come from the streams layer and load no numpy.
"""

import importlib

from .errors import (CharpError, ContextMismatch, DegreeTooLarge,
                     ExponentOverflow, NotInRing, NotPrime, NotSolid,
                     PolySyntaxError, PrecisionExhausted, PrecisionMismatch,
                     SizeBound, StreamsAgree)
from .ffield import (FieldContext, FieldElement, frobenius_pow, make_context,
                     pth_root)
from .poly import (MonomialIdeal, MultiPoly, RationalFn, format_poly,
                   format_rational, random_poly)
from .parser import parse_poly, parse_rational
from .frobenius import (FrobDecomposition, decompose, free_basis,
                        frobenius_image, recompose)
from .cartier import (CartierMap, canonical_splitting, check_compatible,
                      check_linearity, compose, is_splitting, trace_project)
from .streams import (SeriesStream, builtin_streams,
                      distinguishing_fraction, first_difference, from_seed,
                      geometric_gap, lacunary, lacunary_shift,
                      parse_stream_spec, perturb, t_stream)
from .excellence import (ExcellenceReport, IMPLICATIONS, THEOREMS, dvr_report,
                         f_finite_report, solidity_witness)

__version__ = "0.1.0"

# name -> numpy-backed submodule that defines it, loaded on first access
_LAZY = {
    "TruncatedSeries": "series", "substitute_series": "series",
    "EmbeddingValuation": "valuation", "INFINITY": "valuation",
}
_LAZY_MODULES = ("series", "valuation", "_kernels")

__all__ = [
    "CharpError", "ContextMismatch", "DegreeTooLarge", "ExponentOverflow",
    "NotInRing", "NotPrime", "NotSolid", "PolySyntaxError",
    "PrecisionExhausted", "PrecisionMismatch", "SizeBound", "StreamsAgree",
    "FieldContext", "FieldElement", "frobenius_pow", "make_context",
    "pth_root",
    "MonomialIdeal", "MultiPoly", "RationalFn", "format_poly",
    "format_rational", "random_poly",
    "parse_poly", "parse_rational",
    "TruncatedSeries", "substitute_series",
    "FrobDecomposition", "decompose", "free_basis", "frobenius_image",
    "recompose",
    "CartierMap", "canonical_splitting", "check_compatible",
    "check_linearity", "compose", "is_splitting", "trace_project",
    "SeriesStream", "builtin_streams", "from_seed", "geometric_gap",
    "lacunary", "lacunary_shift", "parse_stream_spec", "perturb", "t_stream",
    "EmbeddingValuation", "INFINITY", "distinguishing_fraction",
    "first_difference",
    "ExcellenceReport", "IMPLICATIONS", "THEOREMS", "dvr_report",
    "f_finite_report", "solidity_witness",
    "__version__",
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})
