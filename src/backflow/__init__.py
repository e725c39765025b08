"""backflow: measure training memory through controlled two-step interventions.

The harness runs paired micro-experiments (two first instruments differing
only by augmentation, then a common second instrument) on small trainable
models, records whether the second instrument amplifies or attenuates the
branches' distinguishability on a fixed probe set, and tests the optimizer
buffer reset that should neutralize the effect.  A finite process oracle
verifies the underlying no-back-flow bounds exactly.
"""

from .data import Dataset, load_table, make_synthetic, split_probe
from .diagnostics import (
    ConfigPoint,
    DoseResponse,
    TrajectoryProjection,
    cosine,
    curve_slope,
    dose_response,
    linear_cka,
    pca_project,
)
from .divergences import KINDS, div_avg, div_row
from .errors import ConfigError, NanGuardError
from .instruments import (
    AUG_KINDS,
    AugmentationKernel,
    BatchPlan,
    Instrument,
    apply_augmentation,
    sample_batch_plan,
)
from .model import (
    ModelSpec,
    forward,
    init_params,
    loss_and_grad,
    parameter_count,
    penultimate_features,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerState,
    amplification_factor,
    causal_break,
    step,
)
from .protocol import (
    REGIME_PRESETS,
    BackflowRecord,
    EarlyStopPolicy,
    Regime,
    RunConfig,
    StatsPolicy,
    collect_with_early_stop,
    config_from_mapping,
    pretrain,
    run_micro_experiment,
    run_micro_experiment_detailed,
    run_noncommute_curve,
    run_sweep,
)
from .seeding import derive_seed
from .stats import (
    BootstrapSummary,
    CorrelationResult,
    Ols2Result,
    TestResult,
    bh_fdr,
    bh_qvalues,
    bootstrap_mean_ci,
    correlations,
    normal_ci_half_width,
    ols2,
    paired_t,
    t_test_mean,
    tost_equivalence,
)

__version__ = "0.1.0"
