"""A batch of GRU sequences, its backward pass, and a finite-difference audit.

The recurrent cells carry hand-written gradients. This script runs one
bidirectional pass over two sentences packed into one batch, then checks a
few analytic gradients against central differences. Run me:

    python3 demos/02_gru_gradients.py
"""

import numpy as np

from hierex import Rng, bigru_forward, bigru_backward, grad_check, gru_cell

rng = Rng(3)
fwd_cell = gru_cell("fwd", input_dim=4, hidden=5, rng=rng)
bwd_cell = gru_cell("bwd", input_dim=4, hidden=5, rng=rng)

# Two sentences of 4 and 2 tokens, their rows back to back.
lengths = [4, 2]
xs = np.vstack([rng.gauss() for _ in range(6 * 4)]).reshape(6, 4)
reps, last_f, last_b, cache = bigru_forward(fwd_cell, bwd_cell, xs, lengths)
print("6 input rows in sentences of", lengths, "->", reps.shape, "token representations "
      "(forward and backward states side by side)")
print("sentence summaries = [last forward ; last backward], one row per sentence:",
      last_f.shape, "+", last_b.shape)

def loss() -> float:
    """A scalar to differentiate: sum of squared token representations."""
    reps, _, _, cache = bigru_forward(fwd_cell, bwd_cell, xs, lengths)
    bigru_backward(fwd_cell, bwd_cell, cache, 2.0 * reps)
    return float(np.sum(reps * reps))

params = fwd_cell.params() + bwd_cell.params()
report = grad_check(loss, params, eps=1e-5, sample=30, rng=rng)
print("\nfinite-difference audit over", len(params), "tensors:")
for t in report.tensors:
    print(f"  {t.name:8s} max relative error {t.max_rel:.2e} over {t.checked} coords")
print(f"  overall max {report.max_rel:.2e} "
      f"({'PASS' if report.passed(1e-4) else 'FAIL'} at 1e-4)")
