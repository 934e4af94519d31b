"""Verification engine for generation of modular-symbol eigenspaces by
(c,d)-symbols over finite-precision p-adic coefficient rings."""

__version__ = "0.1.0"

from .rings import CoeffRing, RingElem, RingError, make_coeff_ring, root_of_unity
from .characters import (
    DirichletCharacter,
    UnitGroupStructure,
    conductor,
    enumerate_characters,
    parse_theta,
    restrict_to_part,
    teichmuller_character,
    unit_group,
)
from .symbols import SymbolSpace, build_presentation, enumerate_symbols
from .linalg import (
    HowellAccumulator,
    Submodule,
    elementary_divisors,
    howell_form,
)
from .eigen import (
    EigenContext,
    GenerationReport,
    bezout_units,
    build_eigen_context,
    cd_eigensymbol,
    cd_span,
    check_generation,
    eigensymbol,
)
from .hecke import QuotientSpec, check_generation_with_quotient
from .properties import run_properties

__all__ = [
    "CoeffRing",
    "RingElem",
    "RingError",
    "make_coeff_ring",
    "root_of_unity",
    "DirichletCharacter",
    "UnitGroupStructure",
    "conductor",
    "enumerate_characters",
    "parse_theta",
    "restrict_to_part",
    "teichmuller_character",
    "unit_group",
    "SymbolSpace",
    "build_presentation",
    "enumerate_symbols",
    "HowellAccumulator",
    "Submodule",
    "elementary_divisors",
    "howell_form",
    "EigenContext",
    "GenerationReport",
    "bezout_units",
    "build_eigen_context",
    "cd_eigensymbol",
    "cd_span",
    "check_generation",
    "eigensymbol",
    "QuotientSpec",
    "check_generation_with_quotient",
    "run_properties",
    "__version__",
]
