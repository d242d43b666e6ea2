"""Hawkes process simulation, nonparametric kernel estimation, and
automatic kernel decomposition."""

from .kernels import (  # noqa: F401
    Exp,
    Pwl,
    Sqr,
    Sns,
    Sum,
    Product,
    StationarityVerdict,
    evaluate,
    stationarity_norm,
)
from .simulate import EventSequence, HawkesModel, simulate  # noqa: F401
from .covariance import covariance_grid, estimate_lambda, horizon_from_histogram  # noqa: F401
from .spectral import hilbert_transform, invert_to_kernel  # noqa: F401
from .fit import FitResult, fit_expansion, fit_single, residue_of  # noqa: F401
from .likelihood import compensator, compensator_increments, log_likelihood  # noqa: F401
from .search import (  # noqa: F401
    DecompositionConfig,
    DecompositionResult,
    NoStationaryModelError,
    decompose,
    decompose_batch,
    fit_gd_exponential,
    select_level,
    train_test_split,
)

__version__ = "0.1.0"
