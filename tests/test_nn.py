"""Layer forward/backward correctness against finite-difference oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hierex.linalg import ContractError, Rng, glorot_init, sigmoid
from hierex.nn import (ParamTensor, bigru, bigru_backward, bigru_forward, embed_backward,
                       embed_forward, grad_check, pack, param, softmax, softmax_ce, zero_grads)


def central_diff(loss_fn, flat_value, index, eps):
    """Two-sided numeric derivative of loss_fn w.r.t. one flat coordinate."""
    orig = flat_value[index]
    flat_value[index] = orig + eps
    lp = loss_fn()
    flat_value[index] = orig - eps
    lm = loss_fn()
    flat_value[index] = orig
    return (lp - lm) / (2.0 * eps)


def rel_err(a, n):
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def check_all_coords(loss_fn, tensors, eps=1e-5, tol=1e-4):
    """Exhaustive finite-difference check over every coordinate of tensors."""
    zero_grads(tensors)
    loss_fn()
    analytic = {t.name: t.grad.copy() for t in tensors}
    worst = 0.0
    for t in tensors:
        flat = t.value.reshape(-1)
        aflat = analytic[t.name].reshape(-1)
        for c in range(flat.size):
            numeric = central_diff(loss_fn, flat, c, eps)
            worst = max(worst, rel_err(float(aflat[c]), numeric))
    assert worst < tol, f"max relative error {worst}"
    zero_grads(tensors)


class TestEmbedding:
    def test_direct_lookup(self):
        table = ParamTensor("e", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(embed_forward([0], table), np.array([[1.0, 2.0]]))

    def test_repeated_id_rows_identical(self):
        table = ParamTensor("e", np.arange(6.0).reshape(3, 2))
        out = embed_forward([2, 2], table)
        assert np.array_equal(out[0], out[1])

    def test_out_of_range_names_id(self):
        table = ParamTensor("e", np.zeros((3, 2)))
        with pytest.raises(ContractError, match="id 5"):
            embed_forward([0, 5], table)

    def test_out_of_range_names_first_position(self):
        table = ParamTensor("e", np.zeros((3, 2)))
        with pytest.raises(ContractError, match=r"id 7 at position 2 out of range \[0, 3\)"):
            embed_forward([0, 1, 7, 2, -1], table)
        with pytest.raises(ContractError, match="id -1 at position 1 "):
            embed_forward([2, -1, 9], table)

    def test_backward_accumulates_repeats(self):
        # Scatter-add oracle by finite differences on a 3x2 table.
        rng = Rng(2)
        table = ParamTensor("e", glorot_init(3, 2, rng))
        proj = glorot_init(4, 2, rng)
        ids = [2, 0, 2, 1]

        def loss_fn():
            return float(np.sum(embed_forward(ids, table) * proj))

        zero_grads([table])
        loss_fn()
        embed_backward(ids, proj, table)
        flat = table.value.reshape(-1)
        aflat = table.grad.reshape(-1)
        for c in range(flat.size):
            numeric = central_diff(loss_fn, flat, c, 1e-6)
            assert rel_err(float(aflat[c]), numeric) < 1e-7


class TestGruCell:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_init_is_per_gate_glorot_draws(self, seed):
        # Each gate block is drawn with the Glorot limit of one H-row gate,
        # in the order W_r, W_z, W_h, U_r, U_z, U_h, forward direction
        # first; the two directions' rows are stacked [fwd ; bwd] and the
        # biases stay zero.
        gru = bigru("g", 6, 3, Rng(seed))
        assert [(p.name, p.value.shape) for p in gru.params()] == [
            ("g.W", (18, 6)), ("g.U", (18, 3)), ("g.b", (18, 1))]
        rng = Rng(seed)
        draws = [(np.vstack([glorot_init(3, 6, rng) for _ in range(3)]),
                  np.vstack([glorot_init(3, 3, rng) for _ in range(3)])) for _ in range(2)]
        assert gru.w.value.tobytes() == np.vstack([draws[0][0], draws[1][0]]).tobytes()
        assert gru.u.value.tobytes() == np.vstack([draws[0][1], draws[1][1]]).tobytes()
        assert np.all(gru.b.value == 0.0)

    def test_planes_are_views_of_both_directions(self):
        gru = bigru("g", 2, 3, Rng(1))
        w = gru.planes(gru.w.value)
        assert w.shape == (2, 9, 2)
        assert np.array_equal(w[1], gru.w.value[9:])
        gru.planes(gru.u.grad)[1, 0, 2] = 7.0
        assert gru.u.grad[9, 2] == 7.0


class TestGruStep:
    def test_zero_cell_halves_state(self):
        # Only the forward W_h is nonzero, so step 1 sets h = tanh(W_h x) / 2;
        # on a zero input at step 2 both gates are 1/2 and the candidate is 0.
        gru = bigru("g", 2, 2, None)
        gru.w.value[4:6] = [[0.8, 0.0], [0.0, -0.4]]
        reps, last, _ = bigru_forward(gru, np.array([[1.0, 1.0], [0.0, 0.0]]), [2])
        assert np.array_equal(reps[0, :2], 0.5 * np.tanh([0.8, -0.4]))
        assert np.array_equal(last[0, :2], 0.5 * reps[0, :2])
        assert np.all(reps[:, 2:] == 0.0) and np.all(last[:, 2:] == 0.0)

    def test_zero_fixed_point(self):
        gru = bigru("g", 2, 3, None)
        reps, last, _ = bigru_forward(gru, np.zeros((3, 2)), [1, 1, 1])
        assert np.array_equal(reps, np.zeros((3, 6)))
        assert np.array_equal(last, np.zeros((3, 6)))


def direction(gru, d):
    """Direction d of a BiGRU as a one-direction cell for the oracles: its
    W (3H x I), U (3H x H) and b (3H x 1) are views of plane d of the
    stacked values and grads, so an oracle accumulates into the BiGRU."""
    w, u, b = (ParamTensor(p.name, gru.planes(p.value)[d], gru.planes(p.grad)[d])
               for p in gru.params())
    return SimpleNamespace(w=w, u=u, b=b, hidden=gru.hidden)


def stepwise(cell, xs, lengths, reverse=False):
    """Per-sequence, per-step oracle written gate by gate from the row
    blocks of W, U and b: hidden states in the row order of xs."""
    hdim = cell.hidden
    w_r, w_z, w_h = np.split(cell.w.value, 3)
    u_r, u_z, u_h = np.split(cell.u.value, 3)
    b_r, b_z, b_h = np.split(cell.b.value[:, 0], 3)
    out = np.empty((xs.shape[0], hdim))
    start = 0
    for n in lengths:
        h = np.zeros(hdim)
        rows = range(start + n - 1, start - 1, -1) if reverse else range(start, start + n)
        for t in rows:
            x = xs[t]
            r = sigmoid(w_r @ x + u_r @ h + b_r)
            z = sigmoid(w_z @ x + u_z @ h + b_z)
            hh = np.tanh(w_h @ x + u_h @ (r * h) + b_h)
            h = (1.0 - z) * h + z * hh
            out[t] = h
        start += n
    return out


def oracle_pack(lengths, reverse=False):
    """One direction's packing, one row at a time: (counts, offsets, rows, last)."""
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    counts, offsets, rows = [], [], []
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
    return counts, offsets, rows, last


def oracle_gru_forward(cell, xs, lengths, reverse=False):
    """One direction over the packed batch, the arithmetic of bigru_forward
    on one plane: states in the row order of xs, final states, and what
    oracle_gru_backward needs."""
    counts, offsets, rows, last = oracle_pack(lengths, reverse)
    hdim = cell.hidden
    u = cell.u.value
    gates = xs[rows] @ cell.w.value.T
    gates += cell.b.value[:, 0]
    hs = np.empty((gates.shape[0], hdim))
    hp = np.empty_like(hs)
    h = np.zeros((counts[0], hdim))
    for n, s in zip(counts, offsets):
        h_prev = hp[s: s + n]
        h_prev[...] = h[:n]
        g = gates[s: s + n]
        g[:, : 2 * hdim] = sigmoid(g[:, : 2 * hdim] + h_prev @ u[: 2 * hdim].T)
        hh = g[:, 2 * hdim:]
        hh += (g[:, :hdim] * h_prev) @ u[2 * hdim:].T
        np.tanh(hh, out=hh)
        z = g[:, hdim: 2 * hdim]
        h = hs[s: s + n]
        h[...] = (1.0 - z) * h_prev + z * hh
    out = np.empty_like(hs)
    out[rows] = hs
    return out, hs[last], (counts, offsets, rows, last, hp, gates)


def oracle_gru_backward(cell, xs, saved, d_hs, d_last):
    """One direction's BPTT, the arithmetic of bigru_backward on one plane:
    accumulates the cell grads and returns this direction's d_xs."""
    counts, offsets, rows, last, hp, gates = saved
    hdim = cell.hidden
    u = cell.u.value
    dp = d_hs[rows]
    dp[last] += d_last
    da = np.empty((dp.shape[0], 3 * hdim))
    dh = np.zeros((0, hdim))
    for n, s in zip(reversed(counts), reversed(offsets)):
        dht = dp[s: s + n]
        dht[: dh.shape[0]] += dh
        h_prev = hp[s: s + n]
        g = gates[s: s + n]
        r, z, hh = g[:, :hdim], g[:, hdim: 2 * hdim], g[:, 2 * hdim:]
        a = da[s: s + n]
        a[:, 2 * hdim:] = dht * z * (1.0 - hh * hh)
        d_rh = a[:, 2 * hdim:] @ u[2 * hdim:]
        a[:, :hdim] = d_rh * h_prev * (r * (1.0 - r))
        a[:, hdim: 2 * hdim] = dht * (hh - h_prev) * (z * (1.0 - z))
        dh = dht * (1.0 - z) + d_rh * r + a[:, : 2 * hdim] @ u[: 2 * hdim]
    cell.w.grad += da.T @ xs[rows]
    cell.b.grad[:, 0] += da.sum(axis=0)
    cell.u.grad[: 2 * hdim] += da[:, : 2 * hdim].T @ hp
    cell.u.grad[2 * hdim:] += da[:, 2 * hdim:].T @ (gates[:, :hdim] * hp)
    out = np.empty_like(xs)
    out[rows] = da @ cell.w.value
    return out


# Ragged batches: 1-token sequences, equal lengths, and a batch of one.
RAGGED = [[5, 1, 3, 5, 2], [1], [4, 4, 4], [7], [1, 1], [2, 9, 1, 6]]


class TestPack:
    def test_longest_first_layout(self):
        p = pack([2, 3, 1])
        assert p.counts == [3, 2, 1]
        assert p.offsets == [0, 3, 5]
        # step 0 reads sequences 1, 0, 2 at their first rows, and so on
        assert p.rows[0].tolist() == [2, 0, 5, 3, 1, 4]
        assert p.last.tolist() == [4, 5, 2]  # the final steps of 0, 1 and 2

    def test_ties_keep_input_order(self):
        assert pack([2, 2]).rows[0].tolist() == [0, 2, 1, 3]

    def test_reverse_reads_each_sequence_back_to_front(self):
        p = pack([2, 3, 1])
        assert p.rows[1].tolist() == [4, 1, 5, 3, 0, 2]
        assert p.rows[1][p.last].tolist() == [0, 2, 5]  # each sequence's first row

    def test_every_row_packed_once(self):
        for lengths in RAGGED:
            p = pack(lengths)
            assert p.rows.shape == (2, sum(lengths))
            for rows in p.rows:
                assert sorted(rows.tolist()) == list(range(sum(lengths)))
            assert sum(p.counts) == sum(lengths)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_row_loop(self, seed):
        # Random lengths from a narrow range, so most batches have ties.
        rng = Rng(seed)
        lengths = [1 + rng.below(1 + seed % 6) for _ in range(1 + rng.below(9))]
        p = pack(lengths)
        for rows, reverse in zip(p.rows, (False, True)):
            counts, offsets, want_rows, last = oracle_pack(lengths, reverse)
            assert p.counts == counts and p.offsets == offsets
            assert rows.tolist() == want_rows
            assert p.last.tolist() == last
        assert all(type(c) is int for c in p.counts + p.offsets)
        assert p.lengths.tolist() == lengths
        assert p.starts.tolist() == [sum(lengths[:i]) for i in range(len(lengths))]

    @pytest.mark.parametrize("lengths", [[], [3, 0], [-1]])
    def test_bad_lengths_rejected(self, lengths):
        with pytest.raises(ContractError):
            pack(lengths)


class TestGruSequence:
    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_matches_finite_differences(self, seed):
        # A ragged batch with an extra gradient on every sequence's final
        # states in both directions; every coordinate of the BiGRU and of xs.
        rng = Rng(seed)
        gru = bigru("g", 2, 3, rng)
        lengths = [1 + rng.below(4) for _ in range(3)]
        n = sum(lengths)
        xs = glorot_init(n, 2, rng)
        proj = glorot_init(n, 6, rng)
        p_last = glorot_init(len(lengths), 6, rng)

        def loss_fn():
            reps, last, _ = bigru_forward(gru, xs, lengths)
            return float(np.sum(reps * proj) + np.sum(last * p_last))

        zero_grads(gru.params())
        *_, cache = bigru_forward(gru, xs, lengths)
        d_xs = bigru_backward(gru, cache, proj, d_last=p_last)
        for t in gru.params():
            flat = t.value.reshape(-1)
            aflat = t.grad.reshape(-1)
            for c in range(flat.size):
                numeric = central_diff(loss_fn, flat, c, 1e-5)
                assert rel_err(float(aflat[c]), numeric) < 1e-4
        flat_xs = xs.reshape(-1)
        a_xs = d_xs.reshape(-1)
        for c in range(flat_xs.size):
            numeric = central_diff(loss_fn, flat_xs, c, 1e-5)
            assert rel_err(float(a_xs[c]), numeric) < 1e-4

    def test_sequence_matches_stepwise(self):
        rng = Rng(12)
        gru = bigru("g", 4, 5, rng)
        for lengths in RAGGED:
            xs = glorot_init(sum(lengths), 4, rng)
            reps, last, _ = bigru_forward(gru, xs, lengths)
            for half, d in ((slice(None, 5), 0), (slice(5, None), 1)):
                cell, reverse = direction(gru, d), d == 1
                hs, want_last, _ = oracle_gru_forward(cell, xs, lengths, reverse)
                assert np.array_equal(reps[:, half], hs)
                assert np.array_equal(last[:, half], want_last)
                assert np.max(np.abs(reps[:, half] - stepwise(cell, xs, lengths, reverse))) \
                    < 1e-12

    @pytest.mark.parametrize("lengths", RAGGED)
    def test_backward_matches_per_direction_oracle(self, lengths):
        # d_xs and every grad, with d_last on every row, bit for bit.
        rng = Rng(len(lengths))
        gru = bigru("g", 3, 4, rng)
        n = sum(lengths)
        xs = glorot_init(n, 3, rng)
        proj = glorot_init(n, 8, rng)
        p_last = glorot_init(len(lengths), 8, rng)
        params = gru.params()
        zero_grads(params)
        *_, cache = bigru_forward(gru, xs, lengths)
        d_xs = bigru_backward(gru, cache, proj, d_last=p_last)
        got = [t.grad.copy() for t in params]
        zero_grads(params)
        fwd, bwd = direction(gru, 0), direction(gru, 1)
        _, _, saved = oracle_gru_forward(fwd, xs, lengths)
        want = oracle_gru_backward(fwd, xs, saved, proj[:, :4], p_last[:, :4])
        _, _, saved = oracle_gru_forward(bwd, xs, lengths, reverse=True)
        want += oracle_gru_backward(bwd, xs, saved, proj[:, 4:], p_last[:, 4:])
        assert np.array_equal(d_xs, want)
        for t, g in zip(params, got):
            assert np.array_equal(g, t.grad), t.name

    def test_backward_twice_doubles_grads(self):
        rng = Rng(3)
        gru = bigru("g", 2, 3, rng)
        lengths = [3, 1, 4]
        xs = glorot_init(8, 2, rng)
        d_reps = glorot_init(8, 6, rng)
        params = gru.params()
        zero_grads(params)
        *_, cache = bigru_forward(gru, xs, lengths)
        bigru_backward(gru, cache, d_reps)
        once = [t.grad.copy() for t in params]
        bigru_backward(gru, cache, d_reps)
        for t, g in zip(params, once):
            assert np.array_equal(t.grad, 2.0 * g)

    def test_zero_grads_is_exact(self):
        gru = bigru("g", 2, 3, Rng(1))
        for t in gru.params():
            t.grad[...] = 1.5
        zero_grads(gru.params())
        assert all(np.all(t.grad == 0.0) for t in gru.params())


class TestBiGru:
    def test_single_step_equals_lasts(self):
        rng = Rng(8)
        gru = bigru("g", 2, 3, rng)
        xs = glorot_init(1, 2, rng)
        reps, last, _ = bigru_forward(gru, xs, [1])
        assert np.array_equal(reps, last)

    def test_zero_cells_zero_reps(self):
        gru = bigru("g", 2, 3, None)
        reps, last, _ = bigru_forward(gru, np.ones((4, 2)), [3, 1])
        assert np.all(reps == 0.0) and np.all(last == 0.0)
        assert last.shape == (2, 6)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            bigru_forward(bigru("g", 2, 3, Rng(0)), np.zeros((0, 2)), [0])

    def test_lengths_must_cover_rows(self):
        with pytest.raises(ContractError, match="lengths"):
            bigru_forward(bigru("g", 2, 3, Rng(0)), np.zeros((4, 2)), [2, 1])

    def test_palindrome_symmetry_with_tied_cells(self):
        rng = Rng(21)
        gru = bigru("g", 2, 3, rng)
        for p in gru.params():  # tie the backward direction to the forward one
            planes = gru.planes(p.value)
            planes[1] = planes[0]
        half = glorot_init(3, 2, rng)
        xs = np.vstack([half, half[::-1]])  # palindromic length 6
        reps, _, _ = bigru_forward(gru, xs, [6])
        n, h = xs.shape[0], 3
        for t in range(n):
            assert np.array_equal(reps[t, :h], reps[n - 1 - t, h:])

    def test_per_sequence_independence(self):
        rng = Rng(31)
        gru = bigru("g", 2, 3, rng)
        xs1 = glorot_init(4, 2, rng)
        xs2 = glorot_init(6, 2, rng)
        reps_a, *_ = bigru_forward(gru, xs1, [4])
        bigru_forward(gru, xs2, [6])
        reps_b, *_ = bigru_forward(gru, xs1, [4])
        assert np.array_equal(reps_a, reps_b)
        # In one batch with xs2, xs1's rows match its own run to rounding.
        reps_c, *_ = bigru_forward(gru, np.vstack([xs2, xs1]), [6, 4])
        assert np.max(np.abs(reps_c[6:] - reps_a)) < 1e-12

    def test_batch_matches_stepwise(self):
        rng = Rng(40)
        gru = bigru("g", 3, 4, rng)
        for lengths in RAGGED:
            xs = glorot_init(sum(lengths), 3, rng)
            reps, last, _ = bigru_forward(gru, xs, lengths)
            h_f = stepwise(direction(gru, 0), xs, lengths)
            h_b = stepwise(direction(gru, 1), xs, lengths, reverse=True)
            assert np.max(np.abs(reps - np.hstack([h_f, h_b]))) < 1e-12
            ends = np.cumsum(lengths) - 1
            assert np.array_equal(last[:, :4], reps[ends, :4])
            assert np.array_equal(last[:, 4:], reps[ends - np.asarray(lengths) + 1, 4:])

    def test_gradients_match_finite_differences(self):
        rng = Rng(14)
        gru = bigru("g", 2, 2, rng)
        lengths = [3, 1, 2]
        xs = glorot_init(6, 2, rng)
        proj = glorot_init(6, 4, rng)
        p_last = glorot_init(3, 4, rng)

        def loss_fn():
            reps, last, _ = bigru_forward(gru, xs, lengths)
            return float(np.sum(reps * proj) + np.sum(last * p_last))

        zero_grads(gru.params())
        _, _, cache = bigru_forward(gru, xs, lengths)
        d_xs = bigru_backward(gru, cache, proj, d_last=p_last)
        for t in gru.params():
            flat = t.value.reshape(-1)
            aflat = t.grad.reshape(-1)
            for c in range(flat.size):
                numeric = central_diff(loss_fn, flat, c, 1e-5)
                assert rel_err(float(aflat[c]), numeric) < 1e-4
        flat_xs = xs.reshape(-1)
        for c in range(flat_xs.size):
            numeric = central_diff(loss_fn, flat_xs, c, 1e-5)
            assert rel_err(float(d_xs.reshape(-1)[c]), numeric) < 1e-4

    @pytest.mark.parametrize("lengths", RAGGED)
    def test_grad_check_with_d_last_on_every_row(self, lengths):
        # sample=96 reaches every coordinate of W (24x3), U (24x4) and b.
        rng = Rng(sum(lengths))
        gru = bigru("g", 3, 4, rng)
        xs = glorot_init(sum(lengths), 3, rng)
        proj = glorot_init(sum(lengths), 8, rng)
        p_last = glorot_init(len(lengths), 8, rng)

        def loss_fn():
            reps, last, cache = bigru_forward(gru, xs, lengths)
            bigru_backward(gru, cache, proj, d_last=p_last)
            return float(np.sum(reps * proj) + np.sum(last * p_last))

        report = grad_check(loss_fn, gru.params(), eps=1e-5, sample=96, rng=Rng(1))
        assert [t.checked for t in report.tensors] == [72, 96, 24]
        assert report.passed(1e-4), report.max_rel


class TestSoftmaxCe:
    def test_symmetric_two_logits(self):
        loss, dlogits = softmax_ce(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(0.6931471805599453, abs=1e-15)
        assert np.allclose(dlogits, [[-0.5, 0.5]], atol=1e-15)

    def test_hand_softmax(self):
        probs = softmax(np.array([math.log(2.0), 0.0]))
        assert np.allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
        rows = softmax(np.array([[math.log(2.0), 0.0], [0.0, 0.0]]))
        assert np.allclose(rows, [[2.0 / 3.0, 1.0 / 3.0], [0.5, 0.5]], atol=1e-15)

    def test_dlogits_sum_to_zero(self):
        rng = Rng(9)
        for _ in range(20):
            k = rng.below(5) + 2
            logits = glorot_init(rng.below(4) + 1, k, rng) * 10.0
            _, d = softmax_ce(logits, [rng.below(k) for _ in range(logits.shape[0])])
            assert np.max(np.abs(d.sum(axis=1))) < 1e-12

    def test_rows_match_one_row_calls(self):
        rng = Rng(10)
        logits = glorot_init(6, 4, rng) * 5.0
        gold = [rng.below(4) for _ in range(6)]
        loss, d = softmax_ce(logits, gold)
        parts = [softmax_ce(logits[i: i + 1], [g]) for i, g in enumerate(gold)]
        assert loss == pytest.approx(sum(p[0] for p in parts), rel=1e-15)
        assert np.array_equal(d, np.vstack([p[1] for p in parts]))

    def test_gold_out_of_range(self):
        with pytest.raises(ContractError, match="gold 3 at row 1"):
            softmax_ce(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ContractError, match="gold -1 at row 0"):
            softmax_ce(np.zeros((2, 3)), [-1, 0])
        with pytest.raises(ContractError, match="2 gold labels for 3 rows"):
            softmax_ce(np.zeros((3, 3)), [0, 1])


class TestGradCheckHarness:
    def _dense_softmax_setup(self):
        rng = Rng(4)
        w = param("W", 3, 2, rng)
        b = param("b", 3, 1, None)
        f = np.array([0.4, -0.9])

        def loss_fn():
            logits = w.value @ f + b.value[:, 0]
            loss, dlogits = softmax_ce(logits[None, :], [1])
            w.grad += np.outer(dlogits[0], f)
            b.grad[:, 0] += dlogits[0]
            return loss

        return loss_fn, [w, b]

    def test_dense_softmax_model_very_accurate(self):
        loss_fn, params = self._dense_softmax_setup()
        report = grad_check(loss_fn, params, eps=1e-5, sample=25, rng=Rng(0))
        assert report.max_rel < 1e-7

    def test_richardson_eps_doubling(self):
        # Central differences err as O(eps^2): doubling eps from 1e-3 to
        # 2e-3 multiplies the truncation error by ~4 on smooth coordinates.
        loss_fn, params = self._dense_softmax_setup()
        zero_grads(params)
        loss_fn()
        w = params[0]
        analytic = float(w.grad[0, 0])
        flat = w.value.reshape(-1)

        def pure_loss():
            logits = w.value @ np.array([0.4, -0.9]) + params[1].value[:, 0]
            val, _ = softmax_ce(logits[None, :], [1])
            return val

        e1 = abs(central_diff(pure_loss, flat, 0, 1e-3) - analytic)
        e2 = abs(central_diff(pure_loss, flat, 0, 2e-3) - analytic)
        assert e1 > 0.0
        assert 3.0 < e2 / e1 < 5.0

    def test_larger_eps_larger_error(self):
        loss_fn, params = self._dense_softmax_setup()
        fine = grad_check(loss_fn, params, eps=1e-5, sample=25, rng=Rng(0))
        coarse = grad_check(loss_fn, params, eps=1e-2, sample=25, rng=Rng(0))
        assert coarse.max_rel > fine.max_rel

    def test_non_finite_loss_names_coordinate(self):
        p = param("theta", 1, 1, None)

        def loss_fn():
            v = float(p.value[0, 0])
            return 0.0 if v == 0.0 else math.inf

        with pytest.raises(ContractError, match="theta"):
            grad_check(loss_fn, [p], eps=1e-5, sample=1, rng=Rng(0))

    @pytest.mark.parametrize("kwargs,match", [
        (dict(sample=0), "sample"), (dict(sample=-3), "sample"),
        (dict(eps=0.0), "eps"), (dict(eps=-1e-5), "eps"),
        (dict(eps=math.nan), "eps"), (dict(eps=math.inf), "eps"),
    ])
    def test_bad_sample_or_eps_rejected(self, kwargs, match):
        loss_fn, params = self._dense_softmax_setup()
        with pytest.raises(ContractError, match=match):
            grad_check(loss_fn, params, **{"eps": 1e-5, "sample": 5, **kwargs})
