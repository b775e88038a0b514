"""Spectral simulation and verification lab for the BBM equation on the circle."""

__version__ = "0.1.0"

from .spectral import (
    GridSamples,
    ResolutionError,
    SymplecticCoords,
    TrigState,
    analyze,
    apply_J,
    dispersion_multiplier,
    dispersion_symbol,
    from_symplectic,
    project,
    sobolev_norm,
    synthesize,
    to_symplectic,
    truncate,
    unit_cos_mode,
    unit_sin_mode,
    z_inner,
    z_norm,
)
from .flow import (
    FlowConfig,
    FlowError,
    FlowResult,
    free_evolution,
    galerkin_defect,
    integrate,
    integrate_batch,
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
from .squeeze import (
    ScanReport,
    SqueezeConfig,
    SqueezeReport,
    ball_image_scan,
    cylinder_radius,
    maximize_image_radius,
    sample_sphere,
)
from .sampling import smooth_profile, sobolev_ball_state, substream
