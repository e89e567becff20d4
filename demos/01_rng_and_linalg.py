"""Deterministic numerics: the seeded RNG, Glorot init, and stable reductions.

Every random draw in the package flows through one counter-based generator,
so the same seed always yields the same stream, on any platform. Run me:

    python3 demos/01_rng_and_linalg.py
"""

import numpy as np

from hierex import Rng, glorot_init, logsumexp, sigmoid

print("== seeded streams ==")
a, b = Rng(42), Rng(42)
print("first three uniforms, run A:", [round(a.uniform(), 6) for _ in range(3)])
print("first three uniforms, run B:", [round(b.uniform(), 6) for _ in range(3)])
print("identical streams from the same seed; a new seed gives a new stream:")
c = Rng(43)
print("seed 43 starts with:        ", [round(c.uniform(), 6) for _ in range(3)])

print("\n== shuffles and choices are part of the same stream ==")
rng = Rng(7)
deck = list(range(10))
rng.shuffle(deck)
print("shuffled 0..9:", deck)
print("choice from a tuple:", rng.choice(("PLA", "DEF", "COURT")))

print("\n== Glorot-initialized weights ==")
w = glorot_init(4, 6, Rng(0))
limit = np.sqrt(6.0 / (4 + 6))
print(f"4x6 weight matrix, |w| max {np.abs(w).max():.4f} "
      f"(Glorot limit {limit:.4f})")

print("\n== numerically safe pieces ==")
print("sigmoid(-710) does not underflow to an error:", sigmoid(np.array([[-710.0]]))[0, 0])
v = np.array([1000.0, 1000.0 + np.log(2.0)])
print("logsumexp([1000, 1000+ln2]) - 1000 =", logsumexp(v) - 1000.0, "(exact ln 3 is",
      float(np.log(3.0)), ")")

x = np.array([[1.0, 2.0], [3.0, 4.0]])
y = np.array([[5.0, 6.0], [7.0, 8.0]])
print("matmul sanity:", (x @ y).tolist())
