"""The package's public names, pinned.

Adding or removing a public name of `bosonic_bounds` must edit PUBLIC, and
a removed one is listed in CHANGES.md with what replaces it.
"""

import re
import types
from pathlib import Path

import bosonic_bounds
from bosonic_bounds import bounds, channels, gaussian_core, optimize
from bosonic_bounds.channels import PhaseInsensitiveChannel

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"

PUBLIC = {
    # bounds
    "BoundResult", "PenaltyParams", "comparison_bounds", "gap_qu1_ql", "gaussian_c_distance",
    "p_bounds", "p_lower_displaced", "penalty", "q_lower_amp", "q_lower_thermal", "q_u1",
    "q_u1_unconstrained", "q_u2", "q_u3", "q_u4", "q_u4_unconstrained",
    # channels
    "EpsilonReport", "PhaseInsensitiveChannel", "additive_noise", "amplifier",
    "degrading_simulation_check", "epsilon_close_degradable", "epsilon_degradable",
    "make_channel", "pure_loss", "thermal",
    # gaussian_core
    "beamsplitter_symplectic", "binary_entropy", "g_entropy", "two_mode_squeezer_symplectic",
    # optimize
    "BatchOptResult", "minimize_batch",
}

# removed names and the module that held each
REMOVED = [(optimize, "minimize_scalar"), (optimize, "ScalarOptResult"),
           (optimize, "DEFAULT_GRID_POINTS"),
           (gaussian_core, "SymplecticMatrix"), (gaussian_core, "EntropySpectrum"),
           (gaussian_core, "interleave_permutation"), (bounds, "coherent_info_thermal"),
           (bounds, "evaluate_column"),
           *((gaussian_core, name) for name in (
               "GaussianState", "vacuum_state", "thermal_state", "tms_state", "reduce_state",
               "symplectic_eigenvalues", "gaussian_entropy", "mean_photon_number",
               "two_mode_fidelity", "apply_gaussian_channel")),
           *((channels, name) for name in (
               "Decomposition", "decompose_loss_then_amp", "decompose_amp_then_loss",
               "compose_channels", "is_entanglement_breaking", "kappa"))]


def test_public_names_are_pinned():
    names = {n for n, v in vars(bosonic_bounds).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    assert not [name for module, name in REMOVED
                if hasattr(bosonic_bounds, name) or hasattr(module, name)]


def test_removed_names_are_listed_in_changes():
    text = CHANGES.read_text()
    assert [name for _, name in REMOVED if not re.search(rf"\b{name}\b", text)] == []


def test_channel_has_no_state_action():
    # a channel is its (tau, nu) pair; the oracles build X and Y from it
    assert [a for a in ("X", "Y", "apply") if hasattr(PhaseInsensitiveChannel, a)] == []
