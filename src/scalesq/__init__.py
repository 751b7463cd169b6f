"""Scale-family square functions, Fourier multipliers, and smoothness norms
on periodic sampled grids."""

from .grid import (
    DyadicRange,
    Geometry,
    LogTimeGrid,
    SampledField,
    SpectralField,
    bump_field,
    default_dyadic_range,
    default_geometry,
    default_time_grid,
    field_from_function,
    forward_transform,
    gaussian_derivative_field,
    gaussian_field,
    inverse_transform,
    l2_norm,
    load_field_binary,
    load_field_csv,
    mean_subtract,
    modulated_gaussian_field,
    random_band_field,
    save_field_binary,
    save_field_csv,
)
from .kernels import (
    AveragingProfile,
    Kernel,
    MomentClassError,
    MomentClassReport,
    ball_average_profile,
    band_indicator_kernel,
    haar_kernel,
    kernel_from_id,
    marcinkiewicz_kernel,
    moment_class_check,
    poisson_derivative_kernel,
    profile_from_id,
    riesz_constant,
    riesz_difference_kernel,
    sgn_difference_kernel,
)
from .weights import (
    constant_weight,
    power_weight,
    weight_from_id,
    weighted_norm,
)
from .multiplier import (
    DegenerateSymbolError,
    Symbol,
    apply_multiplier,
    bessel_split_symbol,
    bessel_symbol,
    continuous_symbol,
    continuous_tail_estimate,
    dyadic_defect_bound,
    dyadic_symbol,
    invert_multiplier,
    riesz_bessel_ratio_symbol,
    riesz_symbol,
)
from .squarefn import (
    ScaleFamily,
    duality_residual,
    g_function,
    marcinkiewicz_antiderivative,
    marcinkiewicz_direct,
)
from .sobolev import (
    RatioReport,
    TestFamily,
    bessel_potential,
    default_test_family,
    dyadic_potential_difference,
    dyadic_smoothing_difference,
    equivalence_experiment,
    riesz_potential,
    smoothing_difference_function,
    sobolev_equivalence_ratio,
    square_function_ratio,
)
from .conditions import (
    DecayReport,
    NondegeneracyReport,
    ScanReport,
    condition_summary,
    fourier_decay_check,
    hormander_energy,
    local_power_integral,
    marcinkiewicz_estimate_scan,
    nondegeneracy_check,
    radial_majorant_l1,
    tail_moment_integral,
)
from .config import (
    ConfigError,
    DyadicConfig,
    EquivalenceConfig,
    GridConfig,
    TimeGridConfig,
    equivalence_config_from_dict,
    load_equivalence_config,
)

__version__ = "0.1.0"
