"""Photon-number entanglement from a two-pulse biexciton-exciton cascade.

Build the four-mode entangled state produced by sequentially exciting a
three-level emitter, quantify its correlation structure (mutual
information, secret rates, negativity), and validate the closed-form
branch probabilities against independent dynamics oracles.
"""

from .cascade import (
    Amplitudes,
    DecayParams,
    ModeLabel,
    amplitudes,
    dephased_density,
    final_state,
    ghz_state,
)
from .entanglement import (
    Channel,
    EveSplit,
    channel_by_id,
    conditional_mutual_information,
    enumerate_channels,
    mutual_information,
    negativity,
    subset_entropies,
)
from .oracle import (
    PatternCounts,
    Populations,
    monte_carlo_patterns,
    rate_equation_populations,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "Channel",
    "DecayParams",
    "EveSplit",
    "ModeLabel",
    "PatternCounts",
    "Populations",
    "amplitudes",
    "channel_by_id",
    "conditional_mutual_information",
    "dephased_density",
    "enumerate_channels",
    "final_state",
    "ghz_state",
    "monte_carlo_patterns",
    "mutual_information",
    "negativity",
    "rate_equation_populations",
    "subset_entropies",
]
