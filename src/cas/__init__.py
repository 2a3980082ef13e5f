"""Transmit power allocation for communication-assisted sensing.

End-to-end target-parameter distortion through a sensing stage and a
rate-limited forwarding stage, minimized under separated and
dual-functional waveform schemes.
"""

from .channel import (CommChannel, WaveformCovariance, alphas_from_channel,
                      covariance_from_alloc, exact_waveform, generate_rayleigh,
                      mmse_matrix_oracle, mmse_monte_carlo_stats,
                      sample_waveform)
from .dual import (INIT_COMMUNICATION, INIT_SENSING, DualSolution,
                   capacity_gradient, evaluate_dual, gradient_step,
                   optimize_dual, optimize_dual_best)
from .experiment import (DEFAULTS, ConfigError, ExperimentConfig, SweepRecord,
                         collect_sweep, compare_summary, config_from_mapping,
                         parse_config_file, run_point, system_for)
from .model import (DistortionReport, PowerAllocation, SystemConfig,
                    assemble_report, capacity_eigform, noise_var_from_snr,
                    sensing_distortion, sensing_subchannel_distortion,
                    source_eigenvalue)
from .separated import SeparatedSolution, evaluate_split, optimize_separated
from .waterfilling import (ReverseWaterfillResult, WaterfillResult,
                           reverse_waterfill, uniform_allocation,
                           waterfill_capacity)

__version__ = "0.1.0"

__all__ = [
    "CommChannel", "WaveformCovariance", "alphas_from_channel",
    "covariance_from_alloc", "exact_waveform", "generate_rayleigh",
    "mmse_matrix_oracle", "mmse_monte_carlo_stats",
    "sample_waveform",
    "INIT_COMMUNICATION", "INIT_SENSING", "DualSolution", "capacity_gradient",
    "evaluate_dual", "gradient_step", "optimize_dual", "optimize_dual_best",
    "DEFAULTS", "ConfigError", "ExperimentConfig", "SweepRecord",
    "collect_sweep", "compare_summary", "config_from_mapping",
    "parse_config_file", "run_point", "system_for",
    "DistortionReport", "PowerAllocation", "SystemConfig", "assemble_report",
    "capacity_eigform", "noise_var_from_snr", "sensing_distortion",
    "sensing_subchannel_distortion", "source_eigenvalue",
    "SeparatedSolution", "evaluate_split", "optimize_separated",
    "ReverseWaterfillResult", "WaterfillResult", "reverse_waterfill",
    "uniform_allocation", "waterfill_capacity",
    "__version__",
]
