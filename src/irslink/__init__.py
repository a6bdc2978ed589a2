"""IRS-assisted mmWave uplink: channels, phase optimization, experiments."""

from .channel import (AnglePair, ChannelSet, Scenario, angles_between,
                      device_positions, los_channel_matrix, path_loss_umi_los,
                      rician_channel, steering_vector)
from .channel_io import ChannelFileError, load_channels, save_channels
from .config import ConfigError, OptimizerSettings, parse_config
from .experiments import (ExperimentResult, ResultRow, Scheme, SearchStats,
                          SweepSpec, convergence_trace, run_sweep, run_trial,
                          solve, solve_block, trial_seed)
from .link import (PhaseConfig, QuadraticForm, build_quadratic_form,
                   effective_channel, element_local_terms, quadratic_gain,
                   rate, reflection_vector, snr)
from .optimizer import (GroupingSpec, RefinementReport, brute_force,
                        grouping_layout, optimize_grouped,
                        optimize_position_based, phase_set, quantize_phase,
                        successive_refinement)

__version__ = "0.1.0"

__all__ = [
    "AnglePair", "ChannelSet", "Scenario", "angles_between", "device_positions",
    "los_channel_matrix", "path_loss_umi_los", "rician_channel",
    "steering_vector", "ChannelFileError", "load_channels", "save_channels",
    "ConfigError", "OptimizerSettings", "parse_config", "ExperimentResult",
    "ResultRow", "Scheme", "SearchStats", "SweepSpec", "convergence_trace",
    "run_sweep", "run_trial", "solve", "solve_block", "trial_seed", "PhaseConfig", "QuadraticForm",
    "build_quadratic_form", "effective_channel", "element_local_terms",
    "quadratic_gain", "rate", "reflection_vector", "snr", "GroupingSpec",
    "RefinementReport", "brute_force", "grouping_layout", "optimize_grouped",
    "optimize_position_based", "phase_set", "quantize_phase",
    "successive_refinement", "__version__",
]
