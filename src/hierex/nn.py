"""Neural layers with explicit forward and analytic backward passes.

No autodiff tape: every layer saves exactly what its backward pass needs and
the caller drives backpropagation in reverse order. Gradients are pure
accumulations into each parameter's ``grad`` buffer -- running backward twice
without zeroing doubles every gradient, and ``zero_grads`` is the only reset.
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
# GRU cell and packed sequence runner
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
    """Time-major layout of a batch of ragged sequences, with no padding.

    The sequences are ordered longest first, ties in input order, so the
    ones still running at step t are always a prefix of that order: step t
    owns the packed rows ``offsets[t] : offsets[t] + counts[t]``. Packed row
    p reads row ``rows[p]`` of the concatenated input, and ``last[i]`` is
    the packed row of input sequence i's final step.
    """

    counts: list[int]
    offsets: list[int]
    rows: np.ndarray
    last: np.ndarray


def pack(lengths: list[int], reverse: bool = False) -> Packing:
    """Pack sequences of the given lengths, stored back to back in input
    order. With ``reverse`` every sequence is read last row first."""
    if not lengths or min(lengths) < 1:
        raise ContractError(f"pack: lengths must be a non-empty list of integers >= 1, "
                            f"got {list(lengths)}")
    starts = list(accumulate(lengths, initial=0))
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    counts: list[int] = []
    offsets: list[int] = []
    rows: list[int] = []
    for t in range(lengths[order[0]]):
        offsets.append(len(rows))
        for i in order:
            if lengths[i] <= t:
                break
            rows.append(starts[i] + lengths[i] - 1 - t if reverse else starts[i] + t)
        counts.append(len(rows) - offsets[-1])
    last = [0] * len(lengths)
    for j, i in enumerate(order):
        last[i] = offsets[lengths[i] - 1] + j
    return Packing(counts, offsets, np.array(rows, dtype=np.intp),
                   np.array(last, dtype=np.intp))


@dataclass
class GruCache:
    """What one packed GRU pass keeps for its backward pass."""

    packing: Packing
    xs: Matrix          # the input, not copied: it must not change before backward
    h_prev: Matrix      # N x H, packed: the state entering each row's step
    gates: Matrix       # N x 3H, packed: [r ; z ; hh]


def gru_forward(cell: GruCell, xs: Matrix, packing: Packing
                ) -> tuple[Matrix, Matrix, GruCache]:
    """Run the cell over every sequence of a packed batch, each from a zero
    initial state.

    ``xs`` holds the sequences' rows back to back in input order. All input
    projections are one GEMM before the loop; each step is one GEMM for the
    r and z gates and one for the candidate, over the rows still running.
    Returns the hidden states in the row order of xs, each sequence's final
    state (one row per sequence, in input order), and the cache for
    ``gru_backward``.
    """
    hdim = cell.hidden
    u = cell.u.value
    u_rzT, u_hT = u[: 2 * hdim].T, u[2 * hdim:].T
    # The input projections; each step overwrites its rows with the gates.
    gates = xs[packing.rows] @ cell.w.value.T
    gates += cell.b.value[:, 0]
    hs = np.empty((gates.shape[0], hdim))
    hp = np.empty_like(hs)

    h = np.zeros((packing.counts[0], hdim))
    for n, s in zip(packing.counts, packing.offsets):
        h_prev = hp[s: s + n]
        h_prev[...] = h[:n]
        g = gates[s: s + n]
        rz = g[:, : 2 * hdim]
        rz[...] = sigmoid(rz + h_prev @ u_rzT)
        hh = g[:, 2 * hdim:]
        hh += (rz[:, :hdim] * h_prev) @ u_hT
        np.tanh(hh, out=hh)
        z = rz[:, hdim:]
        h = hs[s: s + n]
        h[...] = (1.0 - z) * h_prev + z * hh

    out = np.empty_like(hs)
    out[packing.rows] = hs
    return out, hs[packing.last], GruCache(packing, xs, hp, gates)


def gru_backward(cell: GruCell, cache: GruCache, d_hs: Matrix,
                 d_last: Matrix | None = None) -> Matrix:
    """Full BPTT over a packed batch.

    ``d_hs`` holds the upstream gradient of every hidden state returned by
    ``gru_forward``, in the same row order; ``d_last`` is an extra gradient
    on each sequence's final state. Accumulates all cell grads and returns
    d_xs in the row order of the forward input.
    """
    hdim = cell.hidden
    packing = cache.packing
    u = cell.u.value
    u_rz, u_h = u[: 2 * hdim], u[2 * hdim:]
    dp = d_hs[packing.rows]
    if d_last is not None:
        dp[packing.last] += d_last
    da = np.empty((dp.shape[0], 3 * hdim))  # packed [da_r ; da_z ; da_h]

    dh = np.zeros((0, hdim))
    for n, s in zip(reversed(packing.counts), reversed(packing.offsets)):
        dht = dp[s: s + n]
        dht[: dh.shape[0]] += dh
        h_prev = cache.h_prev[s: s + n]
        g = cache.gates[s: s + n]
        r, z, hh = g[:, :hdim], g[:, hdim: 2 * hdim], g[:, 2 * hdim:]
        a = da[s: s + n]
        a[:, 2 * hdim:] = dht * z * (1.0 - hh * hh)
        d_rh = a[:, 2 * hdim:] @ u_h
        a[:, :hdim] = d_rh * h_prev * (r * (1.0 - r))
        a[:, hdim: 2 * hdim] = dht * (hh - h_prev) * (z * (1.0 - z))
        dh = dht * (1.0 - z) + d_rh * r + a[:, : 2 * hdim] @ u_rz

    cell.w.grad += da.T @ cache.xs[packing.rows]
    cell.b.grad[:, 0] += da.sum(axis=0)
    cell.u.grad[: 2 * hdim] += da[:, : 2 * hdim].T @ cache.h_prev
    cell.u.grad[2 * hdim:] += da[:, 2 * hdim:].T @ (cache.gates[:, :hdim] * cache.h_prev)  # rh

    out = np.empty_like(cache.xs)
    out[packing.rows] = da @ cell.w.value
    return out


# ---------------------------------------------------------------------------
# Bidirectional GRU over a batch of sequences
# ---------------------------------------------------------------------------

@dataclass
class BiGruCache:
    fwd: GruCache
    bwd: GruCache  # over each sequence read back to front


def bigru_forward(fwd: GruCell, bwd: GruCell, xs: Matrix, lengths: list[int]
                  ) -> tuple[Matrix, Matrix, Matrix, BiGruCache]:
    """Encode a batch of sequences in both directions from zero states.

    ``xs`` holds the sequences back to back, ``lengths[i]`` rows for
    sequence i. Returns (token_reps, last_fwd, last_bwd, cache) where row t
    of token_reps is [h_fwd_t ; h_bwd_t], row i of last_fwd is the forward
    state after sequence i's final row and row i of last_bwd is the
    backward state after reading its first row.
    """
    if xs.shape[0] < 1:
        raise ContractError("bigru_forward: empty sequence")
    if sum(lengths) != xs.shape[0]:
        raise ContractError(f"bigru_forward: lengths sum to {sum(lengths)}, "
                            f"xs has {xs.shape[0]} rows")
    hs_f, last_f, cache_f = gru_forward(fwd, xs, pack(lengths))
    hs_b, last_b, cache_b = gru_forward(bwd, xs, pack(lengths, reverse=True))
    return np.hstack([hs_f, hs_b]), last_f, last_b, BiGruCache(cache_f, cache_b)


def bigru_backward(fwd: GruCell, bwd: GruCell, cache: BiGruCache, d_token_reps: Matrix,
                   d_last_fwd: Matrix | None = None,
                   d_last_bwd: Matrix | None = None) -> Matrix:
    """Backward through both directions; returns d_xs."""
    hdim = fwd.hidden
    d_xs = gru_backward(fwd, cache.fwd, d_token_reps[:, :hdim], d_last_fwd)
    d_xs += gru_backward(bwd, cache.bwd, d_token_reps[:, hdim:], d_last_bwd)
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
    mean_rel: float
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
        checks.append(TensorCheck(p.name, max(rels), sum(rels) / len(rels), n_coords))
    zero_grads(params)
    return GradCheckReport(checks)
