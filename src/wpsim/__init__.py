"""Two-channel wave-packet dynamics on a 1-D spectral grid."""

__version__ = "0.1.0"

from .analytic import (
    CondonFactor,
    DecayModelParams,
    QuadratureError,
    bloch_excited_population,
    condon_factor,
    coupling_for_rate,
    lz_probability,
    rabi_population,
    survival_probability,
    ww_rate_condon,
    ww_rate_reflection,
)
from .grid import (
    GROUND_STATE_ENERGY,
    GROUND_STATE_PEAK_DENSITY,
    GROUND_STATE_VARIANCE,
    Grid,
    GridError,
    GridMismatchError,
    Populations,
    RelaxationError,
    TwoChannelState,
    energy_expectation,
    gaussian_packet,
    harmonic_ground_state,
    imaginary_time_relax,
    make_grid,
    momentum_norm,
    norm,
    overlap,
)
from .mcwf import (
    EnsembleResult,
    JumpRecord,
    mcwf_ensemble,
    mcwf_trajectory,
    nojump_benchmark,
    trajectory_rng,
)
from .model import (
    CrossingResult,
    ModelSpec,
    NoCrossingError,
    PotentialSpec,
    PulseSpec,
    constant_pulse,
    crossing_point,
    difference_potential,
    flat_potential,
    gaussian_pulse,
    harmonic_potential,
    linear_potential,
    potential_on_grid,
    potential_value,
    pulse_value,
    tabulated_potential,
)
from .observables import (
    ChannelMoments,
    DecayFit,
    EmptyChannelError,
    FitError,
    OscillationResult,
    SpectrumHistogram,
    detect_oscillation,
    emission_spectrum,
    fit_decay_rate,
    momentum_moments,
    position_moments,
)
from .propagate import (
    AbsorberSpec,
    DivergenceError,
    RunConfig,
    Snapshot,
    Trajectory,
    absorber_mask,
    absorber_profile,
    apply_absorber,
    coupling_step,
    propagate,
    step,
)

__all__ = [
    # analytic
    "CondonFactor", "DecayModelParams", "QuadratureError", "bloch_excited_population",
    "condon_factor", "coupling_for_rate", "lz_probability", "rabi_population",
    "survival_probability", "ww_rate_condon", "ww_rate_reflection",
    # grid
    "GROUND_STATE_ENERGY", "GROUND_STATE_PEAK_DENSITY", "GROUND_STATE_VARIANCE", "Grid",
    "GridError", "GridMismatchError", "Populations", "RelaxationError", "TwoChannelState",
    "energy_expectation", "gaussian_packet", "harmonic_ground_state", "imaginary_time_relax",
    "make_grid", "momentum_norm", "norm", "overlap",
    # mcwf
    "EnsembleResult", "JumpRecord", "mcwf_ensemble", "mcwf_trajectory", "nojump_benchmark",
    "trajectory_rng",
    # model
    "CrossingResult", "ModelSpec", "NoCrossingError", "PotentialSpec", "PulseSpec",
    "constant_pulse", "crossing_point", "difference_potential", "flat_potential", "gaussian_pulse",
    "harmonic_potential", "linear_potential", "potential_on_grid", "potential_value",
    "pulse_value", "tabulated_potential",
    # observables
    "ChannelMoments", "DecayFit", "EmptyChannelError", "FitError", "OscillationResult",
    "SpectrumHistogram", "detect_oscillation", "emission_spectrum", "fit_decay_rate",
    "momentum_moments", "position_moments",
    # propagate
    "AbsorberSpec", "DivergenceError", "RunConfig", "Snapshot", "Trajectory", "absorber_mask",
    "absorber_profile", "apply_absorber", "coupling_step", "propagate", "step",
    # the submodules that the imports above bind (wpsim.propagate is the function)
    "analytic", "grid", "mcwf", "model", "observables",
]
