"""Coherence auditing and statistical recovery verification.

The library measures the pairwise-coherence statistics of a measurement
matrix, turns them into closed-form sparsity thresholds and tail bounds,
checks those bounds empirically, and exercises sparse solvers and
two-dictionary separation on synthetic instances.
"""

from .bounds import (
    BoundReport,
    SeparationCondition,
    coherence_band_probability,
    energy_deviation_tail,
    l1_stability_feasible,
    rip_width,
    separation_condition,
    sparsity_bounds,
    spectral_deviation_tail,
)
from .coherence import (
    CoherenceProfile,
    CoherenceSample,
    CrossCoherenceProfile,
    FitReport,
    coherence_sample,
    cross_coherence,
    normality_check,
    profile,
)
from .ensembles import (
    ENSEMBLES,
    EnsembleSpec,
    MeasurementMatrix,
    generate,
    generate_raw,
    load_matrix,
    normalize_columns,
    real_fourier_frame,
    save_matrix,
)
from .errors import (
    CoherenceAuditError,
    DegenerateColumnError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    MatrixFormatError,
    UnnormalizedMatrixError,
)
from .ripcheck import (
    RatioSample,
    SpectralSample,
    TailCheckPoint,
    band_frequency,
    energy_identity_gap,
    sample_ratios,
    sample_spectral,
    spectral_deviation,
    tail_check,
)
from .separation import (
    SeparationTrial,
    joint_dictionary,
    separate,
    separation_feasibility,
    separation_trial,
    separation_trials,
    spikes_fourier_pair,
)
from .solvers import (
    PhasePoint,
    SolveResult,
    TrialResult,
    bpdn,
    cosamp,
    iht,
    lasso,
    omp,
    phase_curve,
    recovery_trial,
    wilson_interval,
)

__version__ = "0.1.0"
