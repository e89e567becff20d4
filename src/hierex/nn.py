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
    for t, i in enumerate(ids):
        if not 0 <= i < vocab:
            raise ContractError(f"embed_forward: id {i} at position {t} out of range [0, {vocab})")
    return table.value[np.asarray(ids, dtype=np.intp)].copy()


def embed_backward(ids: list[int], d_out: Matrix, table: ParamTensor) -> None:
    """Scatter-add upstream rows into the gradient, accumulating for repeats."""
    np.add.at(table.grad, np.asarray(ids, dtype=np.intp), d_out)


# ---------------------------------------------------------------------------
# Dense affine layer
# ---------------------------------------------------------------------------

def dense_forward(w: ParamTensor, b: ParamTensor, f: np.ndarray) -> np.ndarray:
    """Affine map W f + b for a single feature vector."""
    if w.value.shape[1] != f.shape[0] or w.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"dense: W {w.value.shape}, b {b.value.shape}, f {f.shape}")
    return w.value @ f + b.value[:, 0]


def dense_backward(w: ParamTensor, b: ParamTensor, f: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Accumulate dW, db and return df."""
    w.grad += np.outer(d_out, f)
    b.grad[:, 0] += d_out
    return w.value.T @ d_out


# ---------------------------------------------------------------------------
# GRU cell and sequence runner
# ---------------------------------------------------------------------------

@dataclass
class GruCell:
    """Gated recurrent unit.

    r  = sigmoid(W_r x + U_r h + b_r)
    z  = sigmoid(W_z x + U_z h + b_z)
    hh = tanh(W_h x + U_h (r*h) + b_h)
    h' = (1 - z)*h + z*hh
    """

    w_r: ParamTensor
    w_z: ParamTensor
    w_h: ParamTensor
    u_r: ParamTensor
    u_z: ParamTensor
    u_h: ParamTensor
    b_r: ParamTensor
    b_z: ParamTensor
    b_h: ParamTensor

    @property
    def hidden(self) -> int:
        return self.w_r.value.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_r.value.shape[1]

    def params(self) -> list[ParamTensor]:
        return [self.w_r, self.w_z, self.w_h, self.u_r, self.u_z, self.u_h,
                self.b_r, self.b_z, self.b_h]


def gru_cell(prefix: str, input_dim: int, hidden: int, rng: Rng | None) -> GruCell:
    """Build a cell whose parameter names carry the given prefix."""
    def w(gate: str) -> ParamTensor:
        return param(f"{prefix}.W_{gate}", hidden, input_dim, rng)

    def u(gate: str) -> ParamTensor:
        return param(f"{prefix}.U_{gate}", hidden, hidden, rng)

    def b(gate: str) -> ParamTensor:
        return param(f"{prefix}.b_{gate}", hidden, 1, None)

    return GruCell(w("r"), w("z"), w("h"), u("r"), u("z"), u("h"), b("r"), b("z"), b("h"))


@dataclass
class StepCache:
    """Activations one forward step saves for its backward pass."""

    x: np.ndarray
    h_prev: np.ndarray
    r: np.ndarray
    z: np.ndarray
    rh: np.ndarray
    hh: np.ndarray


def gru_step(cell: GruCell, x: np.ndarray, h_prev: np.ndarray) -> tuple[np.ndarray, StepCache]:
    """One GRU step on a single input vector."""
    if x.shape[0] != cell.input_dim or h_prev.shape[0] != cell.hidden:
        raise ShapeError(
            f"gru_step: x {x.shape} vs input_dim {cell.input_dim}, "
            f"h_prev {h_prev.shape} vs hidden {cell.hidden}")
    r = sigmoid(cell.w_r.value @ x + cell.u_r.value @ h_prev + cell.b_r.value[:, 0])
    z = sigmoid(cell.w_z.value @ x + cell.u_z.value @ h_prev + cell.b_z.value[:, 0])
    rh = r * h_prev
    hh = np.tanh(cell.w_h.value @ x + cell.u_h.value @ rh + cell.b_h.value[:, 0])
    h = (1.0 - z) * h_prev + z * hh
    return h, StepCache(x, h_prev, r, z, rh, hh)


def gru_step_backward(cell: GruCell, cache: StepCache, dh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one step; accumulates cell grads, returns (dx, dh_prev)."""
    c = cache
    dz = dh * (c.hh - c.h_prev)
    dhh = dh * c.z
    dh_prev = dh * (1.0 - c.z)

    da_h = dhh * (1.0 - c.hh * c.hh)
    cell.w_h.grad += np.outer(da_h, c.x)
    cell.u_h.grad += np.outer(da_h, c.rh)
    cell.b_h.grad[:, 0] += da_h
    d_rh = cell.u_h.value.T @ da_h
    dr = d_rh * c.h_prev
    dh_prev = dh_prev + d_rh * c.r

    da_z = dz * c.z * (1.0 - c.z)
    cell.w_z.grad += np.outer(da_z, c.x)
    cell.u_z.grad += np.outer(da_z, c.h_prev)
    cell.b_z.grad[:, 0] += da_z

    da_r = dr * c.r * (1.0 - c.r)
    cell.w_r.grad += np.outer(da_r, c.x)
    cell.u_r.grad += np.outer(da_r, c.h_prev)
    cell.b_r.grad[:, 0] += da_r

    dx = cell.w_h.value.T @ da_h + cell.w_z.value.T @ da_z + cell.w_r.value.T @ da_r
    dh_prev = dh_prev + cell.u_z.value.T @ da_z + cell.u_r.value.T @ da_r
    return dx, dh_prev


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


def _stacked(cell: GruCell) -> tuple[Matrix, np.ndarray, Matrix]:
    """[W_r;W_z;W_h], [b_r;b_z;b_h] and [U_r;U_z], stacked by gate."""
    w = np.vstack([cell.w_r.value, cell.w_z.value, cell.w_h.value])
    b = np.concatenate([cell.b_r.value[:, 0], cell.b_z.value[:, 0], cell.b_h.value[:, 0]])
    return w, b, np.vstack([cell.u_r.value, cell.u_z.value])


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
    w, b, u_rz = _stacked(cell)
    u_rzT, u_hT = u_rz.T, cell.u_h.value.T
    # The input projections; each step overwrites its rows with the gates.
    gates = xs[packing.rows] @ w.T
    gates += b
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
    w, _, u_rz = _stacked(cell)
    u_h = cell.u_h.value
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

    d_w = da.T @ cache.xs[packing.rows]
    d_b = da.sum(axis=0)
    for g, (w_g, b_g) in enumerate([(cell.w_r, cell.b_r), (cell.w_z, cell.b_z),
                                    (cell.w_h, cell.b_h)]):
        w_g.grad += d_w[g * hdim: (g + 1) * hdim]
        b_g.grad[:, 0] += d_b[g * hdim: (g + 1) * hdim]
    d_u_rz = da[:, : 2 * hdim].T @ cache.h_prev
    cell.u_r.grad += d_u_rz[:hdim]
    cell.u_z.grad += d_u_rz[hdim:]
    cell.u_h.grad += da[:, 2 * hdim:].T @ (cache.gates[:, :hdim] * cache.h_prev)  # rh

    out = np.empty_like(cache.xs)
    out[packing.rows] = da @ w
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
    m = float(np.max(logits))
    e = np.exp(logits - m)
    return e / e.sum()


def softmax_ce(logits: np.ndarray, gold: int) -> tuple[float, np.ndarray]:
    """Stable cross-entropy loss and its gradient w.r.t. the logits."""
    k = logits.shape[0]
    if not 0 <= gold < k:
        raise ContractError(f"softmax_ce: gold {gold} out of range [0, {k})")
    lse = logsumexp(logits)
    loss = lse - float(logits[gold])
    dlogits = np.exp(logits - lse)
    dlogits[gold] -= 1.0
    return loss, dlogits


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
    |a - n| / max(1e-8, |a| + |n|).
    """
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
