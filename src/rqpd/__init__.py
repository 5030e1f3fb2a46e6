"""Relativistic two-player quantum Prisoner's Dilemma engine.

Simulates the full game pipeline (entangling gate, strategy unitaries,
per-player Wigner rotations, disentangling and measurement) and the
game-theoretic analysis on top of it: strict dominance, Nash equilibria
over the named strategy set, crossing thresholds in the entanglement
angle, and the region maps behind figure-style sweeps.

Names are exported lazily: importing the package loads no submodule, and
each exported name imports its module on first use, so the numpy-free
``closed_form`` names start without numpy.
The CLI reads its numpy-backed names this way, as ``rqpd.<name>``.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it, in the order of __all__.
_EXPORTS = {
    "Backend": "closed_form",
    "CoefficientMap": "relativity",
    "ConvergenceError": "closed_form",
    "GameInstance": "relativity",
    "JointProbabilities": "game_core",
    "KVector": "game_core",
    "NamedStrategy": "game_core",
    "NashReport": "analysis",
    "NumericIntegrityError": "closed_form",
    "PROFILES": "analysis",
    "PayoffPair": "game_core",
    "PayoffParams": "closed_form",
    "ProfileTable": "analysis",
    "Region": "analysis",
    "RegionLabel": "analysis",
    "RegionMapRow": "closed_form",
    "SdsMargins": "analysis",
    "SdsReport": "analysis",
    "StrategyParams": "game_core",
    "SweepRow": "analysis",
    "ThresholdSet": "closed_form",
    "always_classical_scan": "closed_form",
    "best_response_scan": "analysis",
    "classical_table": "game_core",
    "coefficient_map": "relativity",
    "entangler": "game_core",
    "entanglement_degree": "analysis",
    "joint_probabilities": "relativity",
    "k_coefficients": "game_core",
    "nash_set": "analysis",
    "paper_coefficient_matrix": "relativity",
    "payoff_from_probabilities": "game_core",
    "payoffs": "relativity",
    "profile_table": "analysis",
    "rapidity_from_speed": "closed_form",
    "region_classify": "analysis",
    "sds_of": "analysis",
    "speed_from_rapidity": "closed_form",
    "spin_rotation_pair": "relativity",
    "strategy_unitary": "game_core",
    "sweep_gamma": "analysis",
    "thresholds_closed_form": "closed_form",
    "thresholds_numeric": "analysis",
    "wigner_angle": "closed_form",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
