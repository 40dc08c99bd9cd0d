"""polysieve: exact sieve and Fourier statistics for polynomial
discriminants over Z and over prime fields.

The library verifies, at desk scale and with brute-force oracles, the
machinery behind square-discriminant polynomial counting (a modified
Selberg sieve driven by Mobius-weighted local densities) and almost-prime
discriminant counting (a linear sieve driven by the squarefree-complement
density 1/d).
"""

from ._ints import omega
from .almostprime import (
    DiscSequence,
    SieveAdmissibility,
    admissibility,
    build_disc_sequence,
    count_almost_prime,
    delta_r,
    density_remainder,
    field_exponent,
    min_admissible_r,
    multiplicity_bound,
)
from .charsum import (
    GENERAL,
    MONIC,
    Phase,
    SmoothWeight,
    WeightTable,
    dft_point,
    dft_point_direct,
    max_nonzero_phase,
    pair,
    poisson_check,
    weight_table,
)
from .errors import BudgetExceededError, SieveInequalityError
from .fppoly import (
    FpPoly,
    distinct_degree_split,
    enumerate_fp,
    factorization_type,
    fp_gcd,
    fp_normalize,
    is_odd_poly,
    is_squarefree_fp,
    mobius_fp,
    mobius_pn,
)
from .sieve import (
    LocalMatrix,
    SieveWeights,
    count_an_box,
    hit_exponent,
    nu_weight,
    optimal_d,
    qf_value,
    selberg_weights,
    verify_modified_selberg,
)
from .zpoly import (
    DiscReport,
    ZPoly,
    disc_report,
    discriminant,
    enumerate_box,
    gal_in_an,
    ldisc,
    reduce_mod,
    tau_mu_sqfree,
)

__version__ = "0.1.0"
