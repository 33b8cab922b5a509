"""Stability of generalized Fourier matrices and exponential systems.

Builders for Fourier/Vandermonde/DFT-type matrices, spectral summaries
with two independent computation paths, closed-form perturbation bounds,
classification of exponential systems on unions of unit cubes, function-
side oracles, and reproducible experiment sweeps.
"""

from .core_matrix import (
    ComplexDense,
    FrequencySet,
    NodeSet,
    PerturbationMap,
    build_dft,
    build_figure1,
    build_fourier,
    build_gamma,
    build_instability_submatrix,
    build_perturbed_dft_freq,
    build_vandermonde,
    figure1_gram,
)
from .spectral import (
    SpectralSummary,
    UnconvergedError,
    extreme_singular_values,
    gram_extremes,
    hermitian_eigenvalues,
    svd_values,
)
from .bounds import (
    BoundReport,
    clump_bounds,
    dft_freq_bounds,
    instability_spectrum,
    kadec_C,
    kadec_D,
    perturbed_frame_bounds,
    vandermonde_node_bounds,
    wellsep_bounds,
    weyl_freq_bounds,
    weyl_node_bounds,
)
from .exp_systems import (
    ClumpDecomposition,
    ConditionCheck,
    ExponentialSystemSpec,
    SystemClassification,
    classify_system,
    clump_decompose,
    gram_matrix,
    separation,
    special_delta_condition,
    tensor_kadec_condition,
    wrap_distance,
)
from .oracle import CubeWitness, FiniteSequence, extremal_witness, frame_ratio, hilbert_shift, riesz_ratio
from .experiments import (
    SweepConfig,
    SweepRecord,
    benchmark_comparison,
    clump_experiment,
    figure1_sweep,
    fit_loglog_slope,
    freq_stability_sweep,
    node_stability_sweep,
    wellsep_sweep,
)

__version__ = "0.1.0"
