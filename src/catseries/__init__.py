"""Statistical analysis toolkit for nominal categorical time series.

Feature extraction (marginal dispersion, lagged association measures,
categorical-numeric cross-correlation, spectral envelope), serial
independence tests, chart data with deterministic SVG rendering,
dissimilarities with 2-D scaling and outlier scoring, and seeded series
simulators.
"""

from .association import (
    PsiMatrix,
    SerialMeasureResult,
    cohens_kappa,
    cramers_v,
    gk_lambda,
    gk_tau,
    pearson_measure,
    phi2_measure,
    psi_matrix,
    sakoda_measure,
    total_correlation,
    uncertainty_coefficient,
)
from .dispersion import chebycheff_dispersion, entropy, gini_index
from .graphics import (
    ControlChart,
    CycleRecord,
    FractalSeries,
    PatternHistogram,
    RateEvolution,
    cycle_length_chart,
    cycle_lengths,
    dependence_plot_data,
    ewma_marginal_chart,
    ifs_circle_transform,
    rate_evolution,
)
from .inference import TestReport, cohens_kappa_test, cramers_v_test, holm_adjust
from .mining import (
    BoxplotOutliers,
    DistanceMatrix,
    Embedding,
    FeatureVector,
    boxplot_outlier_count,
    db_features,
    dcc_features,
    distance_matrix,
    outlier_scores,
    two_dimensional_scaling,
)
from .mixed import (
    DEFAULT_RHO_GRID,
    mixed_cross_correlation,
    mixed_quantile_cross_correlation,
    total_mixed_cor,
    total_mixed_qcor,
)
from .series import (
    Alphabet,
    CategoricalSeries,
    LagTables,
    binarize,
    conditional_probabilities,
    corpus_lag_tables,
    lag_tables,
    marginal_probabilities,
)
from .simulate import (
    CorpusSpec,
    HiddenMarkovModel,
    MarkovChainModel,
    NdarmaModel,
    corpus_spec_from_dict,
    generate_corpus,
    generate_hmm,
    generate_mc,
    generate_ndarma,
    generate_series,
)
from .spectral import SpectralEnvelope, scaled_series, spectral_envelope
from .svg import render_svg

__version__ = "0.1.0"
