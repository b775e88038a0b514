"""Spectral simulation and verification lab for the BBM equation on the circle."""

__version__ = "0.1.0"

from .spectral import (
    GridSamples,
    ResolutionError,
    SymplecticCoords,
    TrigState,
    analyze,
    dispersion_multiplier,
    dispersion_symbol,
    from_symplectic,
    sobolev_norm,
    synthesize,
    to_symplectic,
    unit_cos_mode,
    unit_sin_mode,
    z_norm,
)
from .flow import (
    FlowConfig,
    FlowError,
    FlowResult,
    free_evolution,
    galerkin_defect,
    integrate,
    adjoint_batch,
    integrate_batch,
    integrate_taped,
    invariants_of,
    nonlinear_part,
    rhs,
)
from .estimates import (
    EstimateReport,
    EstimateSample,
    bilinear_ratio,
    canonical_form_matrix,
    estimate_constant,
    flow_jacobian,
    multiplier_ratio,
    radial_orbit,
    smoothing_ratio,
    symplectic_defect,
)
from .squeeze import SqueezeConfig, SqueezeReport, cylinder_radius, maximize_image_radius
from .sampling import smooth_profile, sobolev_ball_state, substream
