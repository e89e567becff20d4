"""Neural layers with explicit forward and analytic backward passes.

No autodiff tape: every layer saves exactly what its backward pass needs and
the caller drives backpropagation in reverse order. Gradients are pure
accumulations into each parameter's ``grad`` buffer -- running backward twice
without zeroing doubles every gradient, and ``zero_grads`` is the only reset.

The bidirectional GRU keeps both directions in one parameter set, the
forward direction's rows first, and reads it as two planes. It runs a
batch of ragged sequences packed by ``pack`` (longest first, time-major,
no padding), and both directions advance in one step loop: their gates
and states are stacked as two planes too, and each step makes one batched
GEMM per gate group. Each plane's arithmetic is that of a one-direction
loop, so the result does not depend on the other direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .linalg import ContractError, Matrix, Rng, glorot_init, logsumexp, sigmoid


@dataclass
class ParamTensor:
    """A named trainable matrix paired with its gradient accumulator."""

    name: str
    value: Matrix
    grad: Matrix = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.value.shape != self.grad.shape:
            raise ContractError(f"{self.name}: value {self.value.shape} "
                                f"vs grad {self.grad.shape}")


def param(name: str, rows: int, cols: int, rng: Rng | None = None) -> ParamTensor:
    """Glorot-initialized parameter, or zeros when no rng is given."""
    if rng is None:
        value = np.zeros((rows, cols), dtype=np.float64)
    else:
        value = glorot_init(rows, cols, rng)
    return ParamTensor(name, value)


def zero_grads(params: list[ParamTensor]) -> None:
    for p in params:
        p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# Embedding lookup
# ---------------------------------------------------------------------------

def embed_forward(ids: list[int], table: ParamTensor) -> Matrix:
    """Row lookup: output row t is table row ids[t]."""
    vocab = table.value.shape[0]
    idx = np.asarray(ids, dtype=np.intp)
    bad = np.flatnonzero((idx < 0) | (idx >= vocab))
    if bad.size:
        t = int(bad[0])
        raise ContractError(f"embed_forward: id {idx[t]} at position {t} out of range [0, {vocab})")
    return table.value[idx]


def embed_backward(ids: list[int], d_out: Matrix, table: ParamTensor) -> None:
    """Scatter-add upstream rows into the gradient, accumulating for repeats."""
    np.add.at(table.grad, np.asarray(ids, dtype=np.intp), d_out)


# ---------------------------------------------------------------------------
# Bidirectional GRU parameters and packed layout
# ---------------------------------------------------------------------------

@dataclass
class BiGru:
    """Both directions of a bidirectional GRU as one parameter set: W
    (2*3H x I), U (2*3H x H) and b (2*3H x 1), the forward direction's rows
    first. Each direction's rows stack its gates in the order r, z, h:

    r  = sigmoid(W_r x + U_r h + b_r)
    z  = sigmoid(W_z x + U_z h + b_z)
    hh = tanh(W_h x + U_h (r*h) + b_h)
    h' = (1 - z)*h + z*hh
    """

    w: ParamTensor
    u: ParamTensor
    b: ParamTensor

    @property
    def hidden(self) -> int:
        return self.u.value.shape[1]

    def params(self) -> list[ParamTensor]:
        return [self.w, self.u, self.b]

    def planes(self, m: Matrix) -> np.ndarray:
        """A view of a 2*3H-row value or grad as 2 x 3H x cols, one plane
        per direction."""
        return m.reshape(2, 3 * self.hidden, m.shape[1])


def bigru(prefix: str, input_dim: int, hidden: int, rng: Rng | None) -> BiGru:
    """Build a BiGRU named ``<prefix>.W``, ``.U`` and ``.b``.

    Each gate block is its own H-row Glorot draw, so the init range is
    that of one gate, not of the stacked matrix. The forward direction
    draws W_r, W_z, W_h and then U_r, U_z, U_h, and the backward direction
    does the same after it. Biases start at zero; so does everything when
    no rng is given.
    """
    def gates(cols: int) -> Matrix:
        if rng is None:
            return np.zeros((3 * hidden, cols))
        return np.vstack([glorot_init(hidden, cols, rng) for _ in range(3)])

    w_f, u_f = gates(input_dim), gates(hidden)
    w_b, u_b = gates(input_dim), gates(hidden)
    return BiGru(ParamTensor(f"{prefix}.W", np.vstack([w_f, w_b])),
                 ParamTensor(f"{prefix}.U", np.vstack([u_f, u_b])),
                 param(f"{prefix}.b", 6 * hidden, 1, None))


@dataclass
class Packing:
    """Time-major layout of a batch of ragged sequences, with no padding,
    read in both directions.

    The sequences are ordered longest first, ties in input order, so the
    ones still running at step t are always a prefix of that order: step t
    owns the packed rows ``offsets[t] : offsets[t] + counts[t]``. Packed row
    p reads row ``rows[0, p]`` of the concatenated input going forward and
    row ``rows[1, p]`` going backward, where step t of a sequence of length
    L is its row L-1-t. ``last[i]`` is the packed row of input sequence i's
    final step, in both directions. ``lengths[i]`` and ``starts[i]`` are
    sequence i's length and its first row of the concatenated input.
    """

    counts: list[int]
    offsets: list[int]
    rows: np.ndarray    # 2 x N: [forward ; reversed]
    last: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray


def pack(lengths: list[int]) -> Packing:
    """Pack sequences of the given lengths, stored back to back in input
    order, for reading forward and for reading each one last row first."""
    if not len(lengths) or min(lengths) < 1:
        raise ContractError(f"pack: lengths must be a non-empty list of integers >= 1, "
                            f"got {list(lengths)}")
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    ends = [0] * lengths[order[0]]  # sequences whose last step is t
    for n in lengths:
        ends[n - 1] += 1
    counts = list(accumulate(reversed(ends)))[::-1]  # sequences longer than t
    offsets = list(accumulate(counts[:-1], initial=0))
    lens, order_a, offsets_a = (np.array(v, dtype=np.intp) for v in (lengths, order, offsets))
    step = np.repeat(np.arange(len(counts)), counts)  # of each packed row
    seq = order_a[np.arange(step.size) - offsets_a[step]]
    starts = np.cumsum(lens) - lens
    first = starts[seq]
    rows = np.stack([first + step, first + lens[seq] - 1 - step])
    last = np.empty_like(lens)
    last[order_a] = offsets_a[lens[order_a] - 1] + np.arange(lens.size)
    return Packing(counts, offsets, rows, last, lens, starts)


# ---------------------------------------------------------------------------
# Bidirectional GRU over a packed batch of sequences
# ---------------------------------------------------------------------------

@dataclass
class BiGruCache:
    """What one BiGRU pass keeps for its backward pass. Plane 0 of each
    stacked tensor is the forward direction, plane 1 the backward one."""

    packing: Packing
    xs: Matrix          # the input, not copied: it must not change before backward
    states: np.ndarray  # 2 x N x H, packed: the state each row's step leaves
    gates: np.ndarray   # 2 x N x 3H, packed: [r ; z ; hh]


def bigru_forward(gru: BiGru, xs: Matrix, lengths: list[int]
                  ) -> tuple[Matrix, Matrix, BiGruCache]:
    """Encode a batch of sequences in both directions from zero states.

    ``xs`` holds the sequences back to back, ``lengths[i]`` rows for
    sequence i. Returns (token_reps, last, cache) where row t of
    token_reps is [h_fwd_t ; h_bwd_t] and row i of last is
    [last_fwd_i ; last_bwd_i]: the forward state after sequence i's final
    row and the backward state after reading its first row.

    Both directions advance in one step loop over the packed batch. The
    input projections of both are one batched GEMM before the loop,
    written into the gates; each step makes one batched GEMM with the
    two directions' r and z rows of U and one with their h rows, over the
    rows still running.
    """
    if xs.shape[0] < 1:
        raise ContractError("bigru_forward: empty sequence")
    if sum(lengths) != xs.shape[0]:
        raise ContractError(f"bigru_forward: lengths sum to {sum(lengths)}, "
                            f"xs has {xs.shape[0]} rows")
    hdim = gru.hidden
    packing = pack(lengths)
    n = xs.shape[0]
    w, u, b = (gru.planes(p.value) for p in gru.params())
    # The input projections; each step overwrites its rows with the gates.
    gates = np.matmul(xs[packing.rows], w.transpose(0, 2, 1))
    gates += b.transpose(0, 2, 1)
    u_rzT, u_hT = u[:, : 2 * hdim].transpose(0, 2, 1), u[:, 2 * hdim:].transpose(0, 2, 1)
    states = np.empty((2, n, hdim))

    h = np.zeros((2, packing.counts[0], hdim))
    for c, s in zip(packing.counts, packing.offsets):
        h_prev = h[:, :c]  # a view of the previous step's states
        g = gates[:, s: s + c]
        rz = g[:, :, : 2 * hdim]
        rz[...] = sigmoid(rz + h_prev @ u_rzT)
        hh = g[:, :, 2 * hdim:]
        hh += (rz[:, :, :hdim] * h_prev) @ u_hT
        np.tanh(hh, out=hh)
        z = rz[:, :, hdim:]
        h = np.multiply(1.0 - z, h_prev, out=states[:, s: s + c])
        h += z * hh

    reps = np.empty((n, 2 * hdim))
    reps[packing.rows[0], :hdim] = states[0]
    reps[packing.rows[1], hdim:] = states[1]
    return reps, np.hstack(states[:, packing.last]), BiGruCache(packing, xs, states, gates)


def bigru_backward(gru: BiGru, cache: BiGruCache, d_token_reps: Matrix,
                   d_last: Matrix | None = None) -> Matrix:
    """Full BPTT through both directions in one reversed step loop.

    ``d_token_reps`` is the upstream gradient of token_reps and ``d_last``
    an extra gradient on each sequence's final states, in the layout of
    bigru_forward's ``last``. Accumulates every grad of ``gru`` and
    returns d_xs in the row order of the forward input.
    """
    hdim = gru.hidden
    packing = cache.packing
    counts, offsets, n = packing.counts, packing.offsets, cache.xs.shape[0]
    w, u = gru.planes(gru.w.value), gru.planes(gru.u.value)
    u_rz, u_h = u[:, : 2 * hdim], u[:, 2 * hdim:]
    dp = np.empty((2, n, hdim))
    dp[0] = d_token_reps[packing.rows[0], :hdim]
    dp[1] = d_token_reps[packing.rows[1], hdim:]
    if d_last is not None:
        dp[0, packing.last] += d_last[:, :hdim]
        dp[1, packing.last] += d_last[:, hdim:]
    da = np.empty((2, n, 3 * hdim))  # packed [da_r ; da_z ; da_h]

    dh = np.zeros((2, 0, hdim))
    for t in range(len(counts) - 1, -1, -1):
        c, s = counts[t], offsets[t]
        dht = dp[:, s: s + c]
        dht[:, : dh.shape[1]] += dh
        if t:  # a view of the states the previous step left
            h_prev = cache.states[:, offsets[t - 1]: offsets[t - 1] + c]
        else:
            h_prev = np.zeros((2, c, hdim))
        g = cache.gates[:, s: s + c]
        r, z, hh = g[:, :, :hdim], g[:, :, hdim: 2 * hdim], g[:, :, 2 * hdim:]
        a = da[:, s: s + c]
        a[:, :, 2 * hdim:] = dht * z * (1.0 - hh * hh)
        d_rh = a[:, :, 2 * hdim:] @ u_h
        a[:, :, :hdim] = d_rh * h_prev * (r * (1.0 - r))
        a[:, :, hdim: 2 * hdim] = dht * (hh - h_prev) * (z * (1.0 - z))
        dh = dht * (1.0 - z) + d_rh * r + a[:, :, : 2 * hdim] @ u_rz
    del dp, dht  # freed before the per-direction temporaries below

    # The state entering each packed row's step: zero at step 0, else the
    # state its sequence left one step earlier, counts[t-1] packed rows
    # before. Built for one direction at a time, so little is alive beside da.
    prev = np.arange(counts[0], n) - np.repeat(np.array(counts[:-1], dtype=np.intp),
                                                 counts[1:])
    dw, du, db = (gru.planes(p.grad) for p in gru.params())
    h_prev = np.zeros((n, hdim))
    for d, rows in enumerate(packing.rows):
        a, g = da[d], cache.gates[d]
        h_prev[counts[0]:] = cache.states[d, prev]
        dw[d] += a.T @ cache.xs[rows]
        db[d, :, 0] += a.sum(axis=0)
        du[d, : 2 * hdim] += a[:, : 2 * hdim].T @ h_prev
        du[d, 2 * hdim:] += a[:, 2 * hdim:].T @ (g[:, :hdim] * h_prev)  # rh
    del h_prev

    d_xs = np.empty_like(cache.xs)
    d_xs[packing.rows[0]] = da[0] @ w[0]
    d_xs[packing.rows[1]] += da[1] @ w[1]
    return d_xs


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: of a vector, or of each row of a matrix."""
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce(logits: Matrix, gold: list[int]) -> tuple[float, Matrix]:
    """Cross-entropy of each row of an N x K logit matrix against its gold
    column: the loss summed over the rows, and its N x K gradient."""
    n, k = logits.shape
    gold = np.asarray(gold, dtype=np.intp)
    if gold.shape != (n,):
        raise ContractError(f"softmax_ce: {gold.size} gold labels for {n} rows")
    bad = np.flatnonzero((gold < 0) | (gold >= k))
    if bad.size:
        i = int(bad[0])
        raise ContractError(f"softmax_ce: gold {gold[i]} at row {i} out of range [0, {k})")
    rows = np.arange(n)
    lse = logsumexp(logits, axis=1)
    dlogits = np.exp(logits - lse[:, None])
    dlogits[rows, gold] -= 1.0
    return float(np.sum(lse - logits[rows, gold])), dlogits


# ---------------------------------------------------------------------------
# Finite-difference gradient checker
# ---------------------------------------------------------------------------

@dataclass
class TensorCheck:
    name: str
    max_rel: float
    checked: int


@dataclass
class GradCheckReport:
    tensors: list[TensorCheck]

    @property
    def max_rel(self) -> float:
        return max((t.max_rel for t in self.tensors), default=0.0)

    def passed(self, threshold: float) -> bool:
        return self.max_rel < threshold


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(loss_fn, params: list[ParamTensor], eps: float = 1e-5,
               sample: int = 25, rng: Rng | None = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be a deterministic closure that recomputes the loss from
    the current parameter values and, as a side effect, repopulates grads.
    For each tensor, ``sample`` distinct coordinates are drawn from ``rng``
    and checked at (L(t+eps) - L(t-eps)) / 2 eps. Relative error is
    |a - n| / max(1e-8, |a| + |n|). ``sample`` must be >= 1 and ``eps``
    finite and > 0.
    """
    if sample < 1:
        raise ContractError(f"grad_check: sample must be >= 1, got {sample!r}")
    if not (np.isfinite(eps) and eps > 0.0):
        raise ContractError(f"grad_check: eps must be finite and > 0, got {eps!r}")
    rng = rng or Rng(0)
    zero_grads(params)
    base = loss_fn()
    if not np.isfinite(base):
        raise ContractError(f"grad_check: non-finite base loss {base}")
    analytic = {p.name: p.grad.copy() for p in params}

    checks = []
    for p in params:
        size = p.value.size
        n_coords = min(sample, size)
        coords = list(range(size))
        rng.shuffle(coords)
        coords = coords[:n_coords]
        flat = p.value.reshape(-1)
        rels = []
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = loss_fn()
            flat[c] = orig - eps
            lm = loss_fn()
            flat[c] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ContractError(f"grad_check: non-finite loss at {p.name}[{c}]")
            numeric = (lp - lm) / (2.0 * eps)
            rels.append(_rel_err(float(analytic[p.name].reshape(-1)[c]), numeric))
        checks.append(TensorCheck(p.name, max(rels), n_coords))
    zero_grads(params)
    return GradCheckReport(checks)
