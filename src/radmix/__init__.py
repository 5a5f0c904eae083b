"""Numerical laboratory for mixed radial/angular integrability of analytic
functions on the unit disc: norm quadratures, witness families, the
discretised Bergman projection with its comparison kernels, and decidable
inclusion/compactness predicates checked against computed norms."""

from .exponents import ExponentPair, ExtendedExponent
from .functions import (
    AnalyticFunction,
    BranchCutError,
    CesaroPower,
    DomainError,
    Features,
    Lacunary,
    Monomial,
    PowerSingularity,
    RationalBump,
    Scaled,
    Sum,
    TaylorPolynomial,
    derivative_at,
    dilate,
    evaluate,
    from_spec,
    to_spec,
)
from .norms import (
    NormEstimate,
    QuadratureConfig,
    dilation_convergence,
    discrete_mixed_norm,
    mixed_norm,
    tail_sup_norm,
)
from .witnesses import (
    EmbeddingParams,
    ProjectionBlowupDensity,
    cesaro_power,
    embedding_function,
    embedding_tail_bound,
    in_stolz_wedge,
    power_singularity,
    projection_blowup_density,
)
from .bergman import (
    GridFunction,
    PolarGrid,
    apply_kernel_operator,
    bergman_kernel,
    bergman_projection_operator,
    circle_maximal,
    duality_pairing,
    grid_mixed_norm,
    kernel_capped,
    kernel_capped_depth,
    kernel_offdiag,
    kernel_offdiag_dyadic_sum,
    operator_norm_estimate,
    project,
    running_average_maximal,
    sample_on_grid,
    stolz_wedge_inequalities,
)
from .sequences import ExponentFit
from .theorems import (
    InclusionVerdict,
    NormCache,
    compactness_witness_scan,
    evaluation_functional_fit,
    inclusion_is_compact,
    inclusion_region_contains,
    inclusion_witness_scan,
)

__version__ = "0.1.0"
