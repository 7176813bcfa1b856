"""Exact multigraded homology of the Koszul complex on the degree-c
monomials of a polynomial ring, with graded Betti tables of Veronese
modules, duality and vanishing checks, syzygy-linearity index scans, and
explicit cycle/boundary verifiers."""

from .combinatorics import ExponentVec, RingParams
from .complex import block_basis, differential_block, graded_dim
from .cycles import (
    CycleElement,
    SpecialCycleSpec,
    apply_differential,
    coefficient_space_dim,
    is_boundary,
    special_cycle,
    verify_factorial_theorem,
    wedge,
    z1_generator,
)
from .exactla import FieldSpec, SparseIntMatrix, elementary_divisors, kernel_basis
from .homology import (
    BettiTable,
    HomologyEngine,
    HomologyTable,
    check_duality,
    check_green_bound,
    duality_partner,
    verify_vanishing,
)

__version__ = "0.1.0"
