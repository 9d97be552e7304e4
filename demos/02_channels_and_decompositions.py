"""Phase-insensitive channel algebra.

Shows the canonical (tau, nu) representation, the entanglement-breaking
predicate, both two-stage decompositions, and the approximate-degradability
parameters, ending with the covariance-level check that the degrading and
simulating constructions agree.
"""

import numpy as np

import bosonic_bounds as bb

print("== canonical (tau, nu) forms ==")
for ch in (bb.thermal(0.6, 1.0), bb.amplifier(2.0, 0.0), bb.additive_noise(0.5)):
    eb = bb.is_entanglement_breaking(ch)
    print(f"{ch.kind:10s} params={ch.params}  tau={ch.tau:.3f} nu={ch.nu:.3f}  EB={eb}")

print("\n== loss-then-amplifier decomposition of a thermal channel ==")
d = bb.decompose_loss_then_amp(bb.thermal(0.5, 1.0))
print("first  (pure loss):", d.first.params)
print("second (amplifier):", d.second.params)
re = d.recompose()
print("recomposed (tau, nu):", (re.tau, re.nu), " original:", (0.5, 0.5 * 3))

print("\n== amplifier-then-loss decomposition (any non-EB channel) ==")
for ch in (bb.thermal(0.8, 0.5), bb.additive_noise(0.5)):
    d = bb.decompose_amp_then_loss(ch)
    print(f"{ch.kind}: gain={d.first.params['g']:.4f}, loss eta={d.second.params['eta']:.4f}")
try:
    bb.decompose_amp_then_loss(bb.thermal(0.5, 2.0))
except Exception as exc:
    print("EB input correctly rejected:", exc)

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
