"""Desk-scale laboratory for adaptive-optimizer SDE approximations and scaling rules."""

from .problems import (
    ConstantCovariance,
    EmpiricalCovariance,
    IsotropicCovariance,
    LeastSquaresProblem,
    LinearProblem,
    QuadraticProblem,
)
from .ngos import (
    BernoulliNoiseOracle,
    GaussianOracle,
    MinibatchOracle,
    SvagOracle,
    svag_coefficients,
)
from .optimizers import (
    HyperParams,
    OptimizerState,
    adam_step,
    rmsprop_step,
    run_discrete,
    sgd_step,
)
from .linalg import psd_sqrt
from .recording import NonFiniteError, TestFunctionSet, TrajectoryRecord
from .sde import (
    SdeSystem,
    build_adam_sde,
    build_rmsprop_sde,
    build_sgd_sde,
    euler_maruyama,
)

__version__ = "0.1.0"
