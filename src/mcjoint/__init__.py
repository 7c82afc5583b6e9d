"""mcjoint: method comparison with a joint-ellipse validation test.

Five Deming-family/Passing-Bablok regressions, pairs bootstrap with BCa
intervals, robust covariance of the bootstrap coefficient cloud, the
chi-square(2) joint test of (intercept, slope) = (0, 1), and the Monte
Carlo machinery to study calibration and power.

``import mcjoint`` loads numpy, the package and a few light standard
modules, nothing more.  The process pool (multiprocessing,
concurrent.futures) loads with the first ``run_plan`` that starts one
(more than one worker), and scipy with the first rejection-curve fit
(``fit-power``).

Importing the package pins BLAS to one thread: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS default to 1.  Every matrix here is two
columns wide, so BLAS threads only compete with the simulation's worker
processes; results are the same bits either way.  To override, set a
variable before the import (e.g. OPENBLAS_NUM_THREADS=2).  The pin acts
only if numpy is first imported after it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
    McjointError,
    NoSolutionError,
    SingularCovarianceError,
    StartFailureError,
    ValidationError,
)
from .estimators import DemingConfig, RegressionFit, fit
from .jetest import ValidationReport, ci_verdict, je_test, report_to_json, validate
from .powerfit import (
    PowerLevel,
    SubbotinParams,
    fit_rejection_curve,
    invert_for_power,
    subbotin_density,
    type1_at_null,
)
from .resampling import BootstrapEnsemble, IntervalPair, bca_ci, bootstrap
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
from .simulation import SimulationPlan
from .svgplot import PlotPayload, render_box_ellipse
