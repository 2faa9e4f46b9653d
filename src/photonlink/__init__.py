"""Statistical simulator for a driven three-level microwave photon
detector and the on-off-keyed communication link built on it."""

__version__ = "0.6.1"

from .physics import (  # noqa: F401
    CycleTiming,
    DeviceParams,
    Environment,
    PulseProfile,
    detection_prob_single,
    ground_return_prob,
    power_to_rate,
    single_photon_excitation,
    thermal_photon_rate,
    transition_kernels,
)
from .report import Estimate, SweepReport  # noqa: F401
