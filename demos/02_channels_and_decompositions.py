"""Phase-insensitive channels and the paper's decompositions.

Shows the canonical (tau, nu) representation, the data-processing identity
behind QU1 (a thermal channel is pure loss followed by a quantum-limited
amplifier, so QU1 is the pure-loss Q_L of the first stage), the
approximate-degradability parameters, and the covariance-level check that
the degrading and simulating constructions agree.
"""

import numpy as np

import bosonic_bounds as bb

print("== canonical (tau, nu) forms ==")
for ch in (bb.thermal(0.6, 1.0), bb.amplifier(2.0, 0.0), bb.additive_noise(0.5)):
    print(f"{ch.kind:10s} params={ch.params}  tau={ch.tau:.3f} nu={ch.nu:.3f}")

print("\n== loss-then-amplifier: QU1 is Q_L of the pure-loss stage ==")
eta, nb = 0.8, 0.5
gain = (1 - eta) * nb + 1  # the quantum-limited amplifier's gain
print(f"thermal({eta}, {nb}) = amplifier({gain}, 0) after pure_loss({eta / gain:.6f})")
for ns in (0.1, 1.0, 10.0):
    qu1 = bb.q_u1(bb.thermal(eta, nb), ns).raw
    ql = bb.q_lower_thermal(eta / gain, 0.0, ns).raw
    print(f"ns={ns:5}: QU1 = {qu1:.12f}  Q_L(pure loss) = {ql:.12f}")

print("\n== approximate degradability ==")
for nb in (0.0, 0.5, 2.0):
    rep = bb.epsilon_degradable(bb.thermal(0.75, nb))
    close = bb.epsilon_close_degradable(nb)
    print(f"nb={nb}: eps_degradable={rep.epsilon:.5f}  "
          f"eps_close in [{close.lower:.5f}, {close.epsilon:.5f}]")

print("\n== degrading vs simulating channel, at the covariance level ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(200):
    th = rng.uniform(0, np.pi)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    q = R @ np.diag(1 + rng.uniform(0, 4, 2)) @ R.T
    A, B = bb.degrading_simulation_check(bb.thermal(rng.uniform(0.5, 1.0), rng.uniform(0, 3)), q)
    worst = max(worst, float(np.max(np.abs(A - B))))
print("max |degrading - simulating| over 200 random draws:", worst)

print("\namplifier variant:")
A, B = bb.degrading_simulation_check(bb.amplifier(1.7, 0.8), np.diag([2.0, 1.5]))
print("max residual:", float(np.max(np.abs(A - B))))
