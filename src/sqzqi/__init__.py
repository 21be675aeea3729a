"""Bounds on time-sampled squeezing, an OPA variance model, and a
meta-analysis pipeline for published squeezing records."""

from .windows import (
    SamplingWindow,
    WindowKind,
    evaluate_window,
    gaussian_window,
    lorentzian_sq_window,
    sqrt_ft_squared,
    square_window,
    trapezoid_window,
)
from .qi_bound import (
    BoundResult,
    ConsistencyError,
    QiCurve,
    QuadratureConfig,
    QuadratureError,
    SpectralFunction,
    SpectralShape,
    Variant,
    bound_value,
    casimir_density,
    curve_csv,
    curve_value,
    ford_bound,
    numeric_bound_detail,
    parse_curve_id,
    phase_argument,
    sample_curve,
)
from .opa import (
    NoSqueezingError,
    OpaParams,
    SqueezingPoint,
    effective_ft,
    extremal_product,
    extremes,
    ideal_bound,
    ideal_ft,
    ideal_r_db,
    s_minus,
    s_plus,
    squeezed_fraction,
    variance,
)
from .meta import (
    AnalysisReport,
    DatasetError,
    FitError,
    FtMethod,
    RecordFlag,
    ScaleFit,
    SqueezingRecord,
    classify,
    fit_scale,
    ft_from_extremes,
    load_records,
    reconcile_ft,
)
from .units import C_LIGHT, HBAR, to_db

__version__ = "0.1.0"
