"""Rearrangement-invariant function-space machinery at desk scale.

Rearrangements and norms live on piecewise-constant functions over the
half-line; modulus, capacity and minimal-gradient programs run on finite
metric measure spaces; the regularization module carries the constructive
Lipschitz-truncation algorithm with its level scans.
"""

from .errors import (
    AllDegenerate,
    BudgetExhausted,
    DegenerateRatio,
    HajlaszViolated,
    InvariantViolated,
    NotAttainable,
    NotLipschitzOnSubset,
    NotQuasiconcave,
    RikitError,
    SolverStall,
    UnsupportedCombination,
    ZeroFunction,
)
from .rearrange import (
    GridFn,
    SuperlevelSet,
    WeightedSamples,
    decreasing_rearrangement,
    distribution,
    indicator_gridfn,
    star_star,
    superlevel_family,
)
from .spaces import (
    FundamentalFn,
    NormSpec,
    OrliczN,
    fundamental_function,
    is_quasiconcave,
    least_concave_majorant,
    lorentz_embedding_bound,
    lorentz_embedding_ratio,
    norm,
    psi_majorant_phi,
)
from .maximal import (
    CriteriaReport,
    IndexReport,
    boyd_upper_lowerbound,
    criterion_B,
    density_criteria_report,
    dilation,
    hardy,
    herz_riesz_ratios,
    indices_report,
    m_phi,
    m_phi_norm,
    maximal_decreasing,
    maximal_metric,
    zippin_upper,
)
from .metric import (
    Curve,
    CurveFamily,
    MMS,
    capacity,
    grid_space,
    is_upper_gradient,
    line_integral,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    path_space,
    poincare_ratio,
    single_curve_modulus_oracle,
    tree_space,
)
from .regularize import (
    LipTruncResult,
    TruncationResult,
    glue_gradient,
    lipschitz_truncation,
    mcshane_extend,
    sharp_maximal,
    truncate,
    truncation_convergence_report,
)
from .solver import SolveResult

__version__ = "0.1.0"
