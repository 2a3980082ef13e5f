"""Transmit power allocation for communication-assisted sensing.

End-to-end target-parameter distortion through a sensing stage and a
rate-limited forwarding stage, minimized under separated and
dual-functional waveform schemes.
"""

from .channel import alphas_from_channel, generate_rayleigh
from .dual import DualSolution, evaluate_dual, optimize_dual_best
from .model import DistortionReport, PowerAllocation, SystemConfig
from .separated import SeparatedSolution, evaluate_split, optimize_separated

__version__ = "0.1.0"

__all__ = [
    "SystemConfig", "generate_rayleigh", "alphas_from_channel",
    "optimize_separated", "optimize_dual_best", "evaluate_split",
    "evaluate_dual", "PowerAllocation", "SeparatedSolution", "DualSolution",
    "DistortionReport", "__version__",
]
