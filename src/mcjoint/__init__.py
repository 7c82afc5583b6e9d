"""mcjoint: method comparison with a joint-ellipse validation test.

Five Deming-family/Passing-Bablok regressions, pairs bootstrap with
percentile/BCa/studentized intervals, robust covariance of the bootstrap
coefficient cloud, the chi-square(2) joint test of (intercept, slope) =
(0, 1), and the Monte Carlo machinery to study calibration and power.
"""

__version__ = "0.1.0"

from .dataset import (
    GeneratorSpec,
    PairedSample,
    generate,
    load_hemoglobin,
    read_csv,
    round_significant,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    EnsembleQualityError,
    InsufficientDataError,
    McjointError,
    NoSolutionError,
    SingularCovarianceError,
    StartFailureError,
    ValidationError,
)
from .estimators import (
    DemingConfig,
    RegressionFit,
    fit,
    fit_deming,
    fit_mdeming,
    fit_mmdeming,
    fit_paba,
    fit_wdeming,
    paba_analytic_ci,
)
from .jetest import ValidationReport, ci_verdict, je_test, report_to_json, validate
from .powerfit import (
    PowerLevel,
    SubbotinParams,
    fit_rejection_curve,
    invert_for_power,
    subbotin_density,
    type1_at_null,
)
from .resampling import (
    BootstrapEnsemble,
    IntervalPair,
    bca_ci,
    bootstrap,
    percentile_ci,
    studentized_ci,
)
from .robustcov import (
    CovarianceModel,
    EllipseGeometry,
    classic_cov,
    ellipse_from,
    fast_mcd,
    mahalanobis_sq,
    rocke_cov,
    s_cov,
    stahel_donoho,
)
from .simulation import RejectionCurve, SimulationPlan, power_study, type1_study
from .svgplot import PlotPayload, render_box_ellipse
