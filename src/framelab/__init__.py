"""Finite frames, POVMs, frame functions, and CAZAC sequences.

The package is organized around four objects.  Frames are finite
vector systems in R^d or C^d with the Parseval property as the
distinguished special case.  POVMs are the measurement-theoretic face
of the same data.  Frame functions are maps on the sphere or ball
whose sums over orthonormal bases or Parseval frames are constant,
together with the classical low-dimensional counterexamples showing
when they fail to come from operators.  CAZAC sequences are
unimodular vectors with vanishing autocorrelation, whose translates
and modulates form tight Gabor frames with provably small coherence.
"""

import types as _types

from .errors import (
    BadCardinalityError,
    BadEpsilonError,
    BadFamilySizeError,
    BadNError,
    BadPartitionError,
    BadSelectorError,
    DimMismatchError,
    FramelabError,
    InputError,
    NoConvergenceError,
    NotAFrameError,
    NotHermitianError,
    NotParsevalError,
    NotPovmError,
    NotPrimeError,
    NotSquareError,
    NotUnimodularError,
    NotUnitNormError,
    OutOfBallError,
    PreconditionError,
    SingularOrIndefiniteError,
    TooFewVectorsError,
    TooSmallError,
)
from .frames import (
    Frame,
    FrameReport,
    analyze_frame,
    canonical_parseval,
    coherence,
    frame_bounds,
    frame_operator,
    frame_potential,
    harmonic_frame,
    is_equiangular,
    is_parseval,
    random_onb,
    random_parseval,
    simplex_etf,
    standard_onb,
    welch_bound,
    with_zeros,
)
from .gleason import (
    CounterexampleReport,
    FitResult,
    GleasonFn,
    LadderReport,
    ScalingReport,
    VerificationReport,
    WeightTraceReport,
    Witness,
    cos_counterexample,
    counterexample_battery,
    degree_ladder_experiment,
    epsilon_1d_counterexample,
    expnorm_gleason,
    fit_quadratic,
    gleason_from_effect_measure,
    homogeneity_check,
    quadratic_gleason,
    quadratic_zero_count_s1,
    rational_indicator_counterexample,
    verify_onb_gleason,
    verify_parseval_gleason,
    weight_trace_experiment,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianEig,
    hermitian_eig,
    psd_inv_sqrt,
    random_hermitian,
)
from .povm import (
    BornReport,
    BuschReport,
    FrameFromPovm,
    MeasureCheckReport,
    Povm,
    PovmReport,
    analyze_povm,
    born_experiment,
    born_probabilities,
    busch_experiment,
    check_generalized_measure,
    check_povm,
    frame_from_povm,
    is_effect,
    povm_from_frame,
    povm_from_frame_grouped,
    random_density,
)
from .rng import SplitMix64
from .serialize import (
    ambiguity_to_csv,
    canonical_json,
    frame_from_json,
    frame_to_json,
    load_json,
    parse_json,
    povm_from_json,
    povm_to_json,
    sequence_from_json,
    sequence_to_json,
    sniff_kind,
    write_json,
)
from .waveforms import (
    AmbiguityTable,
    CazacReport,
    GaborReport,
    ambiguity,
    analyze_gabor,
    bjorck,
    bjorck_peak_bound,
    gabor_frame,
    is_cazac,
    quadratic_phase,
)

__version__ = "0.1.0"

# The public API is what the imports above bind: every global name that
# is not private and not one of the submodules the imports also bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
