"""A batch of GRU sequences, its backward pass, and a finite-difference audit.

The recurrent layer carries hand-written gradients. This script runs one
bidirectional pass over two sentences packed into one batch, then checks a
few analytic gradients against central differences. Run me:

    python3 demos/02_gru_gradients.py
"""

import numpy as np

from hierex import Rng, bigru, bigru_backward, bigru_forward, grad_check

rng = Rng(3)
gru = bigru("gru", input_dim=4, hidden=5, rng=rng)
print("one BiGRU, both directions stacked [forward ; backward]:",
      ", ".join(f"{p.name} {p.value.shape}" for p in gru.params()))

# Two sentences of 4 and 2 tokens, their rows back to back.
lengths = [4, 2]
xs = np.vstack([rng.gauss() for _ in range(6 * 4)]).reshape(6, 4)
reps, last, cache = bigru_forward(gru, xs, lengths)
print("6 input rows in sentences of", lengths, "->", reps.shape, "token representations "
      "(forward and backward states side by side)")
print("sentence summaries = [last forward ; last backward], one row per sentence:",
      last.shape)

def loss() -> float:
    """A scalar to differentiate: sum of squared token representations."""
    reps, _, cache = bigru_forward(gru, xs, lengths)
    bigru_backward(gru, cache, 2.0 * reps)
    return float(np.sum(reps * reps))

params = gru.params()
report = grad_check(loss, params, eps=1e-5, sample=60, rng=rng)
print("\nfinite-difference audit over", len(params), "tensors:")
for t in report.tensors:
    print(f"  {t.name:8s} max relative error {t.max_rel:.2e} over {t.checked} coords")
print(f"  overall max {report.max_rel:.2e} "
      f"({'PASS' if report.passed(1e-4) else 'FAIL'} at 1e-4)")
