"""Linear-chain CRF output layer.

Sequence scoring, the forward-backward recursions in log space, gradients
from their marginals (no autodiff), and Viterbi decoding with backpointers.

Forward-backward and Viterbi run a whole batch of ragged sequences, the
sentences of one document, in one Python time loop. The batch uses the
packed layout of ``nn.pack`` (longest first, time-major, no padding), so
the sequences still running at step t are a prefix of those at step t-1
and a step reads its predecessors as one contiguous block. The model
passes the packing its sentence BiGRU already built for the same lengths.
Alphas run over its forward row order and betas over its reversed one,
where step t of a sequence of length L is its row L-1-t and the step
before it is the row after; one step of the loop advances both. Unary
marginals, the gold score and every CRF gradient are then computed for
all rows at once. The pairwise marginals are only needed summed over the
rows, and that sum factors into one K x K product of two N x K row
factors, so no N x K x K tensor is built. All arithmetic inside the loops
is elementwise per sequence, and maxima are exact, so a decoded path does
not depend on what it is batched with. ``crf_log_partition`` and ``viterbi``
are the same kernels on a batch of one.

Ties at every argmax break toward the smaller tag id, and ``viterbi``'s
returned score is ``crf_score`` of its path: it accumulates left to right
as ((score + transition) + emission).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ContractError, Matrix, logsumexp
from .nn import Packing, ParamTensor, pack, param


@dataclass
class CrfParams:
    """Transition scores trans[i][j] for tag i -> j, plus start/end scores."""

    trans: ParamTensor  # K x K
    start: ParamTensor  # K x 1
    end: ParamTensor    # K x 1

    @property
    def n_tags(self) -> int:
        return self.trans.value.shape[0]

    def params(self) -> list[ParamTensor]:
        return [self.trans, self.start, self.end]


def crf_params(n_tags: int, prefix: str = "crf") -> CrfParams:
    """Zero-initialized CRF parameters (decoding then reduces to per-token argmax)."""
    return CrfParams(
        trans=param(f"{prefix}.trans", n_tags, n_tags, None),
        start=param(f"{prefix}.start", n_tags, 1, None),
        end=param(f"{prefix}.end", n_tags, 1, None),
    )


def _check(emissions: Matrix, p: CrfParams, packing: Packing | None = None) -> None:
    n, k = emissions.shape
    if n < 1:
        raise ContractError("crf: empty emission sequence")
    if k != p.n_tags:
        raise ContractError(f"crf: emissions have {k} tags, params have {p.n_tags}")
    if packing is not None and packing.rows.shape[1] != n:
        raise ContractError(f"crf: {n} emission rows, packing has {packing.rows.shape[1]}")


def _first_bad_tag(tags: list[int], n: int, k: int) -> tuple[np.ndarray, int | None]:
    """The tags as an array, and the row of the first one outside [0, k)."""
    g = np.asarray(tags, dtype=np.intp)
    if g.shape != (n,):
        raise ContractError(f"crf: {n} emission rows vs {g.size} tags")
    bad = np.flatnonzero((g < 0) | (g >= k))
    return g, int(bad[0]) if bad.size else None


def crf_score(emissions: Matrix, tags: list[int], p: CrfParams) -> float:
    """Path score: start + emissions along the path + transitions + end."""
    _check(emissions, p)
    n, k = emissions.shape
    _, t = _first_bad_tag(tags, n, k)
    if t is not None:
        raise ContractError(f"crf: tag id {tags[t]} at position {t} out of range [0, {k})")
    trans = p.trans.value
    s = float(p.start.value[tags[0], 0]) + float(emissions[0, tags[0]])
    for t in range(1, len(tags)):
        s = s + float(trans[tags[t - 1], tags[t]]) + float(emissions[t, tags[t]])
    return s + float(p.end.value[tags[-1], 0])


def forward_backward(emissions: Matrix, packing: Packing, p: CrfParams
                     ) -> tuple[np.ndarray, Matrix, Matrix]:
    """Forward and backward recursions in log space over a packed batch.

    ``emissions`` holds the sequences' rows back to back in input order;
    ``packing`` is ``pack(lengths)``. Returns each sequence's log-partition
    (in input order) and the alphas and betas in the row order of
    ``emissions``.
    alpha[t][k] includes the emission at t; beta[t][k] excludes it, so the
    unary marginal at (t, k) is exp(alpha[t][k] + beta[t][k] - logZ).
    """
    _check(emissions, p, packing)
    n, k = emissions.shape
    trans = p.trans.value
    end = p.end.value[:, 0]
    counts, offsets = packing.counts, packing.offsets
    # Plane 0 of y is alpha over the forward rows; plane 1 is
    # emission + beta over the reversed ones, the quantity the next step of
    # the recursion reads. Both are log-sum-exps over the first tag axis:
    # alpha_t[j] = lse_i(alpha_{t-1}[i] + trans[i, j]) + e_t[j] and
    # beta_t[i] = lse_j(trans.T[j, i] + (e + beta)_{t+1}[j]).
    e = emissions[packing.rows]
    mats = np.stack([trans, trans.T])[:, None]
    y = np.empty((2, n, k))
    betas_p = np.empty((n, k))
    c = counts[0]
    y[0, :c] = p.start.value[:, 0] + e[0, :c]
    betas_p[:c] = end
    y[1, :c] = end + e[1, :c]
    for t in range(1, len(counts)):
        c, s, ps = counts[t], offsets[t], offsets[t - 1]
        x = y[:, ps: ps + c, :, None] + mats
        m = x.max(axis=2)
        x -= m[:, :, None]
        np.exp(x, out=x)
        lse = x.sum(axis=2)
        np.log(lse, out=lse)
        lse += m
        betas_p[s: s + c] = lse[1]
        np.add(lse, e[:, s: s + c], out=y[:, s: s + c])

    log_z = logsumexp(y[0, packing.last] + end, axis=1)
    alphas = np.empty((n, k))
    alphas[packing.rows[0]] = y[0]
    betas = np.empty((n, k))
    betas[packing.rows[1]] = betas_p
    return log_z, alphas, betas


def crf_log_partition(emissions: Matrix, p: CrfParams) -> tuple[float, Matrix, Matrix]:
    """Log-partition of one sequence, with its alphas and betas."""
    n = emissions.shape[0]
    log_z, alphas, betas = forward_backward(emissions, pack([n]), p)
    return float(log_z[0]), alphas, betas


def batch_nll_and_grads(emissions: Matrix, gold_tags: list[int], packing: Packing,
                        p: CrfParams, scale: float = 1.0) -> tuple[float, Matrix]:
    """Negative log-likelihood, summed over a packed batch of sequences
    (the sentences of a document), and its gradients.

    ``emissions`` and ``gold_tags`` hold every row of the batch back to
    back in input order; ``packing`` is as in ``forward_backward``.
    Returns (nll, d_emissions) and accumulates scale * grad into the CRF
    parameter grads. d_emissions[t][k] = P(y_t = k) - 1{gold_t = k}; the
    transition gradient is the pairwise marginals minus the gold transition
    counts, over every adjacent pair of every sequence.
    """
    _check(emissions, p, packing)
    n, k = emissions.shape
    lengths, starts = packing.lengths, packing.starts
    g, bad = _first_bad_tag(gold_tags, n, k)
    if bad is not None:
        i = int(np.searchsorted(starts, bad, side="right")) - 1
        raise ContractError(f"crf: tag id {g[bad]} at sentence {i}, position "
                            f"{bad - starts[i]}, out of range [0, {k})")
    log_z, alphas, betas = forward_backward(emissions, packing, p)
    lasts = starts + lengths - 1
    later = np.ones(n, dtype=bool)
    later[starts] = False
    cur = np.flatnonzero(later)  # every row with a predecessor in its sequence
    prev = cur - 1
    rows = np.arange(n)
    trans = p.trans.value
    start, end = p.start.value[:, 0], p.end.value[:, 0]

    gold_score = (start[g[starts]].sum() + emissions[rows, g].sum()
                  + trans[g[prev], g[cur]].sum() + end[g[lasts]].sum())
    nll = float(log_z.sum() - gold_score)

    row_log_z = np.repeat(log_z, lengths)
    unary = alphas + betas
    unary -= row_log_z[:, None]
    np.exp(unary, out=unary)  # n x k marginals

    # Summed over rows, the pairwise marginal exp(a[i] + trans[i, j] + b[j]
    # - logZ) is exp(trans - min trans) * (A.T @ B), where row r of B is
    # exp(b_r - max b_r) and row r of A is exp(a_r - max a_r) times
    # exp(max a_r + max b_r + min trans - logZ_r) <= 1; no factor overflows.
    a = alphas[prev]
    b = emissions[cur] + betas[cur]
    t_min = trans.min()
    a_max = a.max(axis=1, keepdims=True)
    b_max = b.max(axis=1, keepdims=True)
    a -= a_max
    np.exp(a, out=a)
    a *= np.exp(a_max + b_max + t_min - row_log_z[cur][:, None])
    b -= b_max
    np.exp(b, out=b)
    d_trans = np.exp(trans - t_min) * (a.T @ b)
    d_trans -= np.bincount(g[prev] * k + g[cur], minlength=k * k).reshape(k, k)
    p.trans.grad += scale * d_trans
    p.start.grad[:, 0] += scale * (unary[starts].sum(axis=0)
                                   - np.bincount(g[starts], minlength=k))
    p.end.grad[:, 0] += scale * (unary[lasts].sum(axis=0)
                                 - np.bincount(g[lasts], minlength=k))

    d_emissions = unary
    d_emissions[rows, g] -= 1.0
    if scale != 1.0:
        d_emissions *= scale
    return nll, d_emissions


def batch_viterbi(emissions: Matrix, packing: Packing, p: CrfParams) -> np.ndarray:
    """Highest-scoring tag path of every sequence of a packed batch, via
    max-product with backpointers.

    ``emissions`` holds the sequences' rows back to back in input order and
    ``packing`` is their packing. Returns the tag of every row, in the
    same order. np.argmax returns the first maximum, which is exactly the
    smallest-id tie rule.
    """
    _check(emissions, p, packing)
    n, k = emissions.shape
    trans = p.trans.value
    end = p.end.value[:, 0]
    counts, offsets = packing.counts, packing.offsets

    e = emissions[packing.rows[0]]
    delta = np.empty((n, k))
    backptr = np.empty((n, k), dtype=np.intp)
    delta[: counts[0]] = p.start.value[:, 0] + e[: counts[0]]
    for t in range(1, len(counts)):
        c, s, ps = counts[t], offsets[t], offsets[t - 1]
        scores = delta[ps: ps + c, :, None] + trans
        backptr[s: s + c] = scores.argmax(axis=1)
        np.add(scores.max(axis=1), e[s: s + c], out=delta[s: s + c])

    # Back to front: a sequence whose last step is t starts from its best
    # final tag there; one still running follows its backpointer from t+1.
    path = np.empty(n, dtype=np.intp)
    tag = np.empty(counts[0], dtype=np.intp)
    seq = np.arange(counts[0])
    c_next = s_next = 0
    for t in range(len(counts) - 1, -1, -1):
        c, s = counts[t], offsets[t]
        tag[:c_next] = backptr[s_next + seq[:c_next], tag[:c_next]]
        if c > c_next:
            tag[c_next:c] = (delta[s + c_next: s + c] + end).argmax(axis=1)
        path[s: s + c] = tag[:c]
        c_next, s_next = c, s

    out = np.empty(n, dtype=np.intp)
    out[packing.rows[0]] = path
    return out


def viterbi(emissions: Matrix, p: CrfParams) -> tuple[list[int], float]:
    """Highest-scoring tag path of one sequence, and crf_score of that path."""
    path = batch_viterbi(emissions, pack([emissions.shape[0]]), p).tolist()
    return path, crf_score(emissions, path, p)
