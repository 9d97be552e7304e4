"""The package's public names, pinned.

Adding or removing a public name of `bosonic_bounds` must edit PUBLIC, and
a removed one is listed in CHANGES.md with what replaces it.
"""

import types

import bosonic_bounds
from bosonic_bounds import gaussian_core, optimize

PUBLIC = {
    # bounds
    "BoundResult", "PenaltyParams", "comparison_bounds", "gap_qu1_ql", "gaussian_c_distance",
    "p_bounds", "p_lower_displaced", "penalty", "q_lower_amp", "q_lower_thermal", "q_u1",
    "q_u1_unconstrained", "q_u2", "q_u3", "q_u4", "q_u4_unconstrained",
    # channels
    "Decomposition", "EpsilonReport", "PhaseInsensitiveChannel", "additive_noise", "amplifier",
    "decompose_amp_then_loss", "decompose_loss_then_amp", "degrading_simulation_check",
    "epsilon_close_degradable", "epsilon_degradable", "is_entanglement_breaking",
    "make_channel", "pure_loss", "thermal",
    # gaussian_core
    "GaussianState", "apply_gaussian_channel", "beamsplitter_symplectic", "binary_entropy",
    "g_entropy", "gaussian_entropy", "mean_photon_number", "reduce_state",
    "symplectic_eigenvalues", "thermal_state", "tms_state", "two_mode_fidelity",
    "two_mode_squeezer_symplectic", "vacuum_state",
    # optimize
    "BatchOptResult", "minimize_batch",
}

# removed names and the module that held each
REMOVED = [(optimize, "minimize_scalar"), (optimize, "ScalarOptResult"),
           (gaussian_core, "SymplecticMatrix"), (gaussian_core, "EntropySpectrum")]


def test_public_names_are_pinned():
    names = {n for n, v in vars(bosonic_bounds).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    assert not [name for module, name in REMOVED
                if hasattr(bosonic_bounds, name) or hasattr(module, name)]
