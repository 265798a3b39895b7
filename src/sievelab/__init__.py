"""sievelab: a verification workbench for modular square roots, additive
energies, complete exponential sums, character sums, and large-sieve
inequalities with explicit constants.

Every fast evaluation path is cross-checked against an independent
brute-force oracle, and every explicit-constant inequality is executed
on concrete instances.
"""

__version__ = "1.0.0"

from .arith import (  # noqa: E402,F401
    BudgetExceeded,
    FactoredModulus,
    eps_q,
    factorize,
    is_prime,
    jacobi,
    mod_inverse,
)
from .sqrtmod import (  # noqa: F401
    RootSet,
    build_root_multiset,
    build_root_multiset_ladder,
    root_pairs,
    sqrt_mod_all,
)
from .energies import (  # noqa: F401
    EnergyReport,
    energy_e2,
    energy_e2_e4,
    energy_e2_e4_ladder,
    energy_e4,
    energy_f2,
    energy_f2_ladder,
    kssz_check,
)
from .expsums import (  # noqa: F401
    ExpSumValue,
    RationalFunctionModP,
    esum_jh,
    gauss_sum_closed,
    gauss_sum_direct,
    gcal,
    gcal_bound,
    rational_expsum,
)
from .sieve import (  # noqa: F401
    ApproxFrame,
    PxQuery,
    SieveInstance,
    build_frame,
    dirichlet_approx,
    double_sieve_check,
    ls_bound_table,
    ls_lhs,
    propmain_bounds,
    px_count,
    px_monitor,
)
from .oracles import (  # noqa: F401
    gcd_power_sum,
    px_count_literal,
)
from .charsums import (  # noqa: F401
    S4Input,
    TrigWeight,
    cubic_form_charsum,
    s4_closed,
    s4_direct,
    weighted_energy,
)
