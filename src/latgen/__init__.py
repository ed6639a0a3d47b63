"""latgen: rank-1 lattice rule generating vectors.

Constructions: digit-by-digit CBC for N = 2^n, whole-component CBC for prime
N minimizing the smoothness-free log-sine quality, and the standard CBC
baseline minimizing the worst-case error directly. Evaluation: worst-case
error, the quality quantities H, V, T, T_alpha, and the guaranteed theorem
bounds.
"""

from ._kernels import BACKEND, BACKEND_REASON
from .cbc import construct_korobov_cbc, construct_standard_cbc
from .cbc_dbd import construct_cbc_dbd
from .error import (
    H_quantity,
    T_alpha_quantity,
    T_quantity,
    V_quality,
    bound_thm_cbc,
    bound_thm_cbcdbd,
    bound_thm_existence,
    wce_product,
)
from .numtheory import GeneratingVector
from .weights import GeneralWeights, ProductWeights, power_weights

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BACKEND_REASON",
    "GeneratingVector",
    "GeneralWeights",
    "ProductWeights",
    "power_weights",
    "construct_cbc_dbd",
    "construct_korobov_cbc",
    "construct_standard_cbc",
    "H_quantity",
    "V_quality",
    "T_quantity",
    "T_alpha_quantity",
    "wce_product",
    "bound_thm_existence",
    "bound_thm_cbcdbd",
    "bound_thm_cbc",
    "__version__",
]
