"""Exact computation with totally reflexive modules over Artinian local
k-algebras with m^3 = 0."""

from .algebra import (
    AlgebraSpec,
    ExactZeroDivisorPair,
    GradedLocalAlgebra,
    RingElement,
    annihilator,
    build_algebra,
    enumerate_ezd,
    exact_zero_divisor_partner,
    hilbert_series,
    ideal_span,
    is_exact_zero_divisor,
    ring_preconditions,
    socle,
)
from .classify import (
    ClassTable,
    classify_ut2,
    enumerate_cyclic_tr,
    swap_isomorphism_check,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    TrmodError,
    ValidationError,
)
from .ext import (
    ExtensionClass,
    ExtSpace,
    ext1,
    ext1_rank_formula,
    gamma,
    les_rank_bound_check,
    pushout_middle,
)
from .filtration import (
    Filtration,
    filtrate_ut,
    find_ut_form,
    mb_matrix,
    mb_preconditions,
    submodule_step,
)
from .modmat import (
    CokernelSpace,
    EquivalenceWitness,
    PresentationMatrix,
    coker_length,
    has_m2_column,
    is_equivalent,
    is_indecomposable,
    linearize,
    minimize,
    syzygy,
)
from .totref import (
    TRCertificate,
    check_totally_reflexive,
    check_ut_tr,
    complete_resolution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
