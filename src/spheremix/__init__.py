"""spheremix: boost pre-trained weak classifiers without retraining them.

Per-network, per-class densities are fitted to square-root-embedded
classifier outputs on the unit hypersphere (or to feature directions on the
Grassmannian when inputs are raw features of differing dimension), then
combined by simplex mixture weights learned through Riemannian gradient
descent on the weight sphere.
"""

__version__ = "0.1.0"

from ._kernels import backend as kernel_backend
from .density import (
    GaussianDensity,
    KernelDensity,
    fit_gaussian,
    fit_kde,
    silverman_bandwidth,
)
from .ensemble import (
    KDE,
    PARAMETRIC,
    EnsembleModel,
    LabeledBatch,
    MixtureWeights,
    class_scores,
    ensemble_probability,
    evaluate,
    fit_densities,
    fit_ensemble,
    fit_weights,
    label_distance,
    loss,
    predict,
)
from .estimators import (
    SampleSet,
    empirical_normalizer,
    incremental_frechet_mean,
    sample_sigma,
)
from .grassmann import GrassmannPoint, gr_distance, gr_embed
from .sphere import SpherePoint, TangentVector, arc_distance, exp_map, geodesic, log_map, sqrt_embed

__all__ = [
    "kernel_backend",
    "GaussianDensity", "KernelDensity", "fit_gaussian", "fit_kde", "silverman_bandwidth",
    "KDE", "PARAMETRIC", "EnsembleModel", "LabeledBatch", "MixtureWeights",
    "class_scores", "ensemble_probability", "evaluate", "fit_densities",
    "fit_ensemble", "fit_weights", "label_distance", "loss", "predict",
    "SampleSet", "empirical_normalizer", "incremental_frechet_mean", "sample_sigma",
    "GrassmannPoint", "gr_distance", "gr_embed",
    "SpherePoint", "TangentVector", "arc_distance", "exp_map", "geodesic",
    "log_map", "sqrt_embed",
]
