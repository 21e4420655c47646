"""Differentially private convex optimization under interpolation.

Solvers that localize both the feasible domain and the effective
Lipschitz constant across epochs, the noise mechanisms and empirical
epsilon audit behind them, generators for hard instances with certified
optima, and a benchmark harness that sweeps, fits rate models, and
checks the closed-form bounds.
"""

from .base_solvers import (
    ConvergenceError,
    InnerSolveConfig,
    SolverResult,
    default_inner_epochs,
    epoch_growth_solver,
    growth_step_size,
    lipschitz_wrap,
    localization_erm,
    solve_regularized_erm,
)
from .bench import (
    AuditOutcome,
    CSV_COLUMNS,
    ExperimentConfig,
    OracleLine,
    RateFit,
    build_instance,
    coerce_mapping,
    fit_rate,
    load_config,
    parse_config_text,
    read_rows_csv,
    rows_to_csv,
    run_audit,
    run_oracles,
    run_sweep,
    write_rows_csv,
)
from .geometry import Ball, as_point, project_onto_ball
from .hardness import (
    GrowthReport,
    PinchReport,
    Quadratic1D,
    StabilityReport,
    SuperefficiencyReport,
    growth_closure_check,
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
    make_packing,
    modulus_oracle,
    pinch_check,
    stability_bound_check,
    superefficiency_construct,
)
from .interpolation import (
    adaptive_solver,
    default_schedule,
    interpolation_localization,
    interpolation_width,
    sample_complexity,
    schedule_block_size,
    shrink_diameter,
)
from .losses import (
    FAMILIES,
    IndicatorQuadratic,
    QuadraticAnchor,
    SmoothedHingeMargin,
    batch_gradients,
    batch_values,
    clip_gradients,
    lip_ext_gradient,
    lip_ext_value,
    loss_gradient,
    loss_value,
)
from .mechanisms import (
    AuditConfig,
    InconclusiveAuditError,
    RngStream,
    as_generator,
    empirical_epsilon,
    noise_scale,
    release_noise,
)
from .problems import (
    Dataset,
    Instance,
    LossConstants,
    PrivacyBudget,
    RunTrace,
    Schedule,
    exact_minimizer,
    excess_risk,
    interpolation_certificate,
    is_interpolating,
    population_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
