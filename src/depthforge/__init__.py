"""depthforge: exact computations around depth-graded Lie algebras,
period polynomials, Eisenstein series and GL2 character calculus.

Everything is exact rational arithmetic (`fractions.Fraction`); no floats.
"""

from types import ModuleType as _ModuleType

from .exactla import QMatrix, kernel_basis, rref
from .ncalg import (
    E0,
    E1,
    NCPoly,
    ad_pow,
    derivation_apply,
    generators,
    ihara_bracket,
    letter,
    lie_bracket,
    nc_mul,
    word_from_str,
    word_to_str,
)
from .depthlie import (
    BrownReport,
    PairCoefficients,
    bracket_matrix,
    depth2_word_basis,
    relation_kernel,
    sigma_leading,
    verify_brown_criterion,
)
from .periodpoly import (
    BivarPoly,
    PeriodSpace,
    candidate_pairs,
    is_period_poly,
    pair_to_poly,
    period_space,
    subspace_equal,
)
from .eisenstein import (
    BernPoly,
    ChainCheck,
    CosetFn,
    HeckeFactorResult,
    QExpansion,
    bernoulli_number,
    bernoulli_poly_eval,
    bernoulli_polynomial,
    check_bernoulli_sum_chain,
    delta_qexp,
    distribution_check,
    divisor_power_sum,
    eisenstein_qexp,
    hecke_eigenvalue,
    hecke_factor,
    hecke_tp,
    phi,
    phi_line_sum,
)
from .repcalc import (
    Character,
    IrrepLabel,
    bigraded_dims,
    character_decompose,
    check_no_eisenstein_component,
    irrep_char,
    tensor_decompose,
)

__version__ = "0.1.0"

# Every name imported above is an export; the submodules those imports bind
# on the package are not.
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
