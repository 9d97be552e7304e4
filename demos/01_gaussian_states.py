"""Tour of the Gaussian-state core: states, spectra, entropies, fidelity.

Everything uses the vacuum-covariance-is-identity convention, so a thermal
state with mean photon number N has covariance (2N+1) I.
"""

import numpy as np

import bosonic_bounds as bb

print("== states and symplectic spectra ==")
vac = bb.vacuum_state(1)
th = bb.thermal_state(2.0)
print("vacuum spectrum:        ", bb.symplectic_eigenvalues(vac))
print("thermal(N=2) spectrum:  ", bb.symplectic_eigenvalues(th), "(= 2N+1)")
print("thermal(N=2) entropy:   ", bb.gaussian_entropy(th), "bits = g(2) =", bb.g_entropy(2.0))

print("\n== two-mode squeezed vacuum ==")
tms = bb.tms_state(1.0)
print("TMS(1) covariance:\n", np.array_str(np.asarray(tms.cov), precision=4))
print("global entropy (pure):  ", bb.gaussian_entropy(tms))
red = bb.reduce_state(tms, (0,))
print("one-arm entropy:        ", bb.gaussian_entropy(red), "= g(1) = 2 bits")
print("one-arm photon number:  ", bb.mean_photon_number(red))

print("\n== channel action on covariance matrices ==")
eta, nb, ns = 0.7, 0.3, 2.0
X = np.sqrt(eta) * np.eye(2)
Y = (1 - eta) * (2 * nb + 1) * np.eye(2)
out = bb.apply_gaussian_channel(X, Y, None, bb.tms_state(ns), modes=(1,))
n_out = bb.mean_photon_number(bb.reduce_state(out, (1,)))
print(f"thermal channel (eta={eta}, nb={nb}) on one TMS arm:")
print(f"  output photons {n_out:.4f} = eta*ns + (1-eta)*nb = {eta*ns+(1-eta)*nb:.4f}")

print("\n== fidelity ==")
a = bb.thermal_state(1.0, modes=2)
b = bb.vacuum_state(2)
print("F(thermal(1)^2, vacuum^2) =", bb.two_mode_fidelity(a, b), "= 1/(N+1)^2 = 0.25")
print("F(TMS(1), TMS(1))         =", bb.two_mode_fidelity(tms, tms))
