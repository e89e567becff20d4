"""Neural layers with explicit forward and analytic backward passes.

No autodiff tape: every layer saves exactly what its backward pass needs and
the caller drives backpropagation in reverse order. Gradients are pure
accumulations into each parameter's ``grad`` buffer -- running backward twice
without zeroing doubles every gradient, and ``zero_grads`` is the only reset.

The bidirectional GRU runs a batch of ragged sequences packed by ``pack``
(longest first, time-major, no padding), and both directions advance in
one step loop: their gates and states are stacked as two planes, and each
step makes one batched GEMM per gate group against the two cells' stacked
``U`` blocks. Each plane's arithmetic is that of a one-direction loop, so
the result does not depend on the other direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .linalg import ContractError, Matrix, Rng, ShapeError, glorot_init, logsumexp, sigmoid


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
            raise ShapeError(f"{self.name}: value {self.value.shape} vs grad {self.grad.shape}")


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
# GRU cell and packed layout
# ---------------------------------------------------------------------------

@dataclass
class GruCell:
    """Gated recurrent unit whose gates are stacked row blocks, in the order
    r, z, h, of W (3H x I), U (3H x H) and b (3H x 1):

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


def gru_cell(prefix: str, input_dim: int, hidden: int, rng: Rng | None) -> GruCell:
    """Build a cell named ``<prefix>.W``, ``.U`` and ``.b``.

    Each gate block is its own H-row Glorot draw, W_r, W_z, W_h and then
    U_r, U_z, U_h, so the init range is that of one gate, not of the
    stacked 3H-row matrix. Biases start at zero; so does everything when
    no rng is given.
    """
    def stacked(cols: int) -> Matrix:
        if rng is None:
            return np.zeros((3 * hidden, cols))
        return np.vstack([glorot_init(hidden, cols, rng) for _ in range(3)])

    return GruCell(ParamTensor(f"{prefix}.W", stacked(input_dim)),
                   ParamTensor(f"{prefix}.U", stacked(hidden)),
                   param(f"{prefix}.b", 3 * hidden, 1, None))


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


def _stacked_u(fwd: GruCell, bwd: GruCell) -> tuple[np.ndarray, np.ndarray]:
    """The two cells' U, stacked 2 x 3H x H: its r and z rows, and its h rows."""
    u = np.stack([fwd.u.value, bwd.u.value])
    return u[:, : 2 * fwd.hidden], u[:, 2 * fwd.hidden:]


def bigru_forward(fwd: GruCell, bwd: GruCell, xs: Matrix, lengths: list[int]
                  ) -> tuple[Matrix, Matrix, Matrix, BiGruCache]:
    """Encode a batch of sequences in both directions from zero states.

    ``xs`` holds the sequences back to back, ``lengths[i]`` rows for
    sequence i. Returns (token_reps, last_fwd, last_bwd, cache) where row t
    of token_reps is [h_fwd_t ; h_bwd_t], row i of last_fwd is the forward
    state after sequence i's final row and row i of last_bwd is the
    backward state after reading its first row.

    Both directions advance in one step loop over the packed batch. Each
    direction's input projections are one GEMM before the loop, written
    into its plane of the gates; each step makes one batched GEMM with the
    two cells' r and z rows of U and one with their h rows, over the rows
    still running.
    """
    if xs.shape[0] < 1:
        raise ContractError("bigru_forward: empty sequence")
    if sum(lengths) != xs.shape[0]:
        raise ContractError(f"bigru_forward: lengths sum to {sum(lengths)}, "
                            f"xs has {xs.shape[0]} rows")
    hdim = fwd.hidden
    packing = pack(lengths)
    n = xs.shape[0]
    # The input projections; each step overwrites its rows with the gates.
    gates = np.empty((2, n, 3 * hdim))
    for plane, cell, rows in zip(gates, (fwd, bwd), packing.rows):
        np.matmul(xs[rows], cell.w.value.T, out=plane)
        plane += cell.b.value[:, 0]
    u_rz, u_h = _stacked_u(fwd, bwd)
    u_rzT, u_hT = u_rz.transpose(0, 2, 1), u_h.transpose(0, 2, 1)
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
    last = states[:, packing.last]
    return reps, last[0], last[1], BiGruCache(packing, xs, states, gates)


def bigru_backward(fwd: GruCell, bwd: GruCell, cache: BiGruCache, d_token_reps: Matrix,
                   d_last_fwd: Matrix | None = None,
                   d_last_bwd: Matrix | None = None) -> Matrix:
    """Full BPTT through both directions in one reversed step loop.

    ``d_token_reps`` is the upstream gradient of token_reps; ``d_last_fwd``
    and ``d_last_bwd`` are extra gradients on each sequence's final states.
    Accumulates every cell grad and returns d_xs in the row order of the
    forward input.
    """
    hdim = fwd.hidden
    packing = cache.packing
    counts, offsets, n = packing.counts, packing.offsets, cache.xs.shape[0]
    u_rz, u_h = _stacked_u(fwd, bwd)
    dp = np.empty((2, n, hdim))
    dp[0] = d_token_reps[packing.rows[0], :hdim]
    dp[1] = d_token_reps[packing.rows[1], hdim:]
    if d_last_fwd is not None:
        dp[0, packing.last] += d_last_fwd
    if d_last_bwd is not None:
        dp[1, packing.last] += d_last_bwd
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
    h_prev = np.zeros((n, hdim))
    for cell, rows, a, states, g in zip((fwd, bwd), packing.rows, da, cache.states,
                                        cache.gates):
        h_prev[counts[0]:] = states[prev]
        cell.w.grad += a.T @ cache.xs[rows]
        cell.b.grad[:, 0] += a.sum(axis=0)
        cell.u.grad[: 2 * hdim] += a[:, : 2 * hdim].T @ h_prev
        cell.u.grad[2 * hdim:] += a[:, 2 * hdim:].T @ (g[:, :hdim] * h_prev)  # rh
    del h_prev

    d_xs = np.empty_like(cache.xs)
    d_xs[packing.rows[0]] = da[0] @ fwd.w.value
    d_xs[packing.rows[1]] += da[1] @ bwd.w.value
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
