"""Design-weighted prevalence estimation with spatial smoothing and map rendering.

The pipeline: load (or simulate) multistage cluster survey records and region
boundaries, compute per-region design-based prevalence estimates with
ultimate-cluster variances, build the region contiguity graph, smooth the
logit-scale estimates with a BYM (iid + ICAR) random-effect model (exact
mixtures over a variance grid by default, or Gibbs sampling), and render
choropleth / comparison figures as deterministic SVG.
"""

__version__ = "0.1.0"

from .data_model import (
    IndividualRecord,
    RegionBoundary,
    SurveyDataset,
    SurveyTable,
    load_records,
    load_boundaries,
    drop_unlinked,
)
from .direct import DirectEstimate, estimate_all
from .graph import AdjacencyGraph, IcarPrecision, build_adjacency, icar_precision
from .bym import BymModelSpec, McmcConfig, BymPosterior, exact_fit, gibbs_fit
from .synthetic import SyntheticTruth, make_grid_regions, spatial_truth, sample_survey

__all__ = [
    "__version__",
    "IndividualRecord",
    "RegionBoundary",
    "SurveyDataset",
    "SurveyTable",
    "load_records",
    "load_boundaries",
    "drop_unlinked",
    "DirectEstimate",
    "estimate_all",
    "AdjacencyGraph",
    "IcarPrecision",
    "build_adjacency",
    "icar_precision",
    "BymModelSpec",
    "McmcConfig",
    "BymPosterior",
    "exact_fit",
    "gibbs_fit",
    "SyntheticTruth",
    "make_grid_regions",
    "spatial_truth",
    "sample_survey",
]
