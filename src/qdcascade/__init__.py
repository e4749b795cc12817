"""Photon-number entanglement from a two-pulse biexciton-exciton cascade.

Build the four-mode entangled state produced by sequentially exciting a
three-level emitter, quantify its correlation structure (mutual
information, secret rates, negativity), and validate the closed-form
branch probabilities against independent dynamics oracles.

The public names below, and the modules themselves, are imported on first
use (PEP 562), so ``import qdcascade`` loads no submodule and numpy only
with the first name it needs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_MODULE_OF = {name: module for module, names in {
    "cascade": "BranchState DecayParams ModeLabel amplitudes dephased_density final_state ghz_state",
    "entanglement": "Channel EveSplit channel_by_id conditional_mutual_information enumerate_channels "
                    "mutual_information negativity subset_entropies",
    "oracle": "PatternCounts Populations monte_carlo_patterns rate_equation_populations",
}.items() for name in names.split()}
_MODULES = ("cascade", "cli", "entanglement", "oracle", "qmath")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or one of the package's modules, imported on first use."""
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
