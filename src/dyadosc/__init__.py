"""dyadosc: dyadic martingales, entropy-dimension counting, and extremal
Holder-function constructions on the unit interval."""

from .dyadic import (
    DEFAULT_MAX_DEPTH,
    DepthCapError,
    DomainError,
    DyadicInterval,
    DyadicRational,
    WhitneyDecomposition,
    locate,
    unit_interval,
    whitney,
)
from .martingale import (
    BinaryDigitMartingale,
    GrowthMartingale,
    Martingale,
    RandomSignMartingale,
    ScaledMartingale,
    SubsampledMartingale,
    beta_norm,
    beta_star_norm,
    binary_digit_martingale,
    check_cancellation,
    discount_transform,
    dump_rows,
    from_function,
    random_growth_martingale,
    sharpness_martingale,
    star_norm,
    summation_by_parts_check,
    zero_martingale,
)
from .entropy import (
    MassMeasure,
    MassSweepReport,
    besicovitch_count,
    besicovitch_count_bruteforce,
    besicovitch_threshold,
    covering_content,
    dim_estimate,
    entropy_phi,
    extremal_bound_exact,
    extremal_configuration,
    product_lower_bound,
    product_lower_bound_exact,
    sweep_mass_distribution,
)
from . import blocks
from .blocks import (
    BlockMartingale,
    BlockSchedule,
    BuildingBlock,
    SpecialIntervalRegistry,
    assemble_martingale,
    build_schedule,
    building_block,
    delta_j,
    m_of_delta,
    n_of_j,
    witness_survey,
)
from .holder import (
    CallableFunction,
    ConstantFunction,
    HolderFunction,
    LinearFunction,
    MartingaleInducedFunction,
    SeminormSampler,
    WeierstrassFunction,
    holder_seminorm_estimate,
    martingale_function,
)
from .wavelet import (
    BaseWavelet,
    CertificationError,
    WaveletOscillator,
    WaveletSchedule,
    WitnessScales,
    base_wavelet,
    next_frequency_level,
    wavelet_oscillator,
    wavelet_schedule,
    witness_scales,
)
from .divdiff import (
    GapProfile,
    QuadratureConfig,
    ScaleStatistics,
    ThetaResult,
    divided_difference,
    sigma_stats,
    theta,
    theta_linear_closed_form,
    theta_martingale_gap,
    tracking_martingale_value,
    trend_pvalue,
)

__version__ = "0.1.0"
