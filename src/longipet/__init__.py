"""longipet: longitudinal 3D PET volume forecasting.

A small, self-contained pipeline: volume and cohort I/O, preprocessing,
affine augmentation, an image-to-image convolutional LSTM model trained
with a from-scratch reverse-mode autodiff engine, a linear extrapolation
baseline, recursive multi-year forecasting with a train/test leakage
audit, image metrics, and the statistical tests used to compare
predictors.
"""

__version__ = "0.2.0"

from .augment import (
    AffineAugmentation,
    apply_affine,
    augment_cohort,
    augment_record,
    sample_augmentation,
)
from .errors import (
    CorruptionError,
    DegenerateDataError,
    DivergenceError,
    FormatError,
    InputError,
    LongipetError,
    ManifestError,
    NormalizationError,
    ParameterError,
    PlanError,
    ShapeError,
    StateError,
    UnsupportedError,
)
from .forecast import (
    AuditReport,
    ForecastPlan,
    PlanEntry,
    audit_leakage,
    forecast_cohort,
    forecast_recursive,
    plan_from_folds,
    save_plan,
)
from .linear import predict_linear
from .metrics import (
    RoiDefinition,
    load_roi,
    mae,
    meta_roi_suvr,
    regional_mae,
    save_roi,
    ssim3d,
)
from .model import (
    I2IModelConfig,
    forward,
    forward_batch,
    init_model,
    load_model,
    save_model,
)
from .phantom import PhantomConfig, PhantomCohort, generate_cohort, write_cohort
from .preprocess import (
    apply_brain_mask,
    gaussian_smooth,
    preprocess_chain,
    suvr_normalize,
)
from .report import (
    STATS_COLUMNS,
    EvalReport,
    EvalRow,
    StatRow,
    compare,
    evaluate_forecasts,
    read_metrics_csv,
    render_report_svg,
    write_metrics_csv,
    write_report_svg,
    write_stats_csv,
)
from .stats import (
    MixedAnovaResult,
    TestResult,
    bonferroni,
    chi_square_independence,
    mixed_anova,
    one_way_anova,
    paired_t,
    wilcoxon_signed_rank,
)
from .training import (
    CrossValResult,
    FoldAssignment,
    Hyper,
    cross_validate,
    load_folds,
    make_folds,
    save_folds,
    train_fold,
)
from .volume_io import (
    CohortManifest,
    ManifestEntry,
    SubjectRecord,
    Volume3D,
    load_manifest,
    pad_to_even,
    read_volume,
    write_manifest,
    write_volume,
)
