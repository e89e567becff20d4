"""Linear-chain CRF against brute-force path enumeration oracles, and the
packed batch kernels against a per-sentence oracle."""

import itertools
import math

import numpy as np
import pytest

from hierex.crf import (batch_nll_and_grads, batch_viterbi, crf_log_partition, crf_params,
                        crf_score, forward_backward, viterbi)
from hierex.linalg import ContractError, Rng, glorot_init, logsumexp
from hierex.nn import pack


def random_instance(seed, n=None, k=None):
    rng = Rng(seed)
    n = n if n is not None else 1 + rng.below(4)
    k = k if k is not None else 2 + rng.below(2)
    emissions = glorot_init(n, k, rng) * 4.0
    p = crf_params(k)
    p.trans.value[...] = glorot_init(k, k, rng) * 2.0
    p.start.value[...] = glorot_init(k, 1, rng)
    p.end.value[...] = glorot_init(k, 1, rng)
    return emissions, p


def random_batch(seed, lengths, k=3, half_steps=False):
    """Per-sentence emissions and gold tags, and CRF params. With
    ``half_steps`` every score is a multiple of 0.5, so Viterbi meets ties."""
    rng = Rng(seed)
    ems = [glorot_init(n, k, rng) * 4.0 for n in lengths]
    gold = [[rng.below(k) for _ in range(n)] for n in lengths]
    p = crf_params(k)
    p.trans.value[...] = glorot_init(k, k, rng) * 2.0
    p.start.value[...] = glorot_init(k, 1, rng)
    p.end.value[...] = glorot_init(k, 1, rng)
    if half_steps:
        ems = [np.round(2.0 * e) / 2.0 for e in ems]
        for t in p.params():
            t.value[...] = np.round(2.0 * t.value) / 2.0
    return ems, gold, p


def packed_nll(ems, gold, p, scale=1.0):
    """batch_nll_and_grads on the sentences ``ems`` with gold tag lists ``gold``."""
    lengths = [e.shape[0] for e in ems]
    return batch_nll_and_grads(np.vstack(ems), [t for g in gold for t in g], pack(lengths),
                               p, scale)


def oracle_log_partition(emissions, p):
    """One sentence's forward and backward recursions, one step at a time."""
    n, k = emissions.shape
    trans = p.trans.value
    alphas = np.empty((n, k))
    alphas[0] = p.start.value[:, 0] + emissions[0]
    for t in range(1, n):
        alphas[t] = logsumexp(alphas[t - 1][:, None] + trans, axis=0) + emissions[t]
    log_z = float(logsumexp(alphas[n - 1] + p.end.value[:, 0]))
    betas = np.empty((n, k))
    betas[n - 1] = p.end.value[:, 0]
    for t in range(n - 2, -1, -1):
        betas[t] = logsumexp(trans + (emissions[t + 1] + betas[t + 1])[None, :], axis=1)
    return log_z, alphas, betas


def oracle_nll_and_grads(emissions, gold_tags, p, scale=1.0):
    """One sentence's nll and gradients from per-token marginals."""
    n, k = emissions.shape
    log_z, alphas, betas = oracle_log_partition(emissions, p)
    nll = log_z - crf_score(emissions, gold_tags, p)
    unary = np.exp(alphas + betas - log_z)
    d_emissions = unary.copy()
    for t, y in enumerate(gold_tags):
        d_emissions[t, y] -= 1.0
    trans = p.trans.value
    d_trans = np.zeros_like(trans)
    for t in range(1, n):
        d_trans += np.exp(alphas[t - 1][:, None] + trans
                          + (emissions[t] + betas[t])[None, :] - log_z)
        d_trans[gold_tags[t - 1], gold_tags[t]] -= 1.0
    p.trans.grad += scale * d_trans
    d_start = unary[0].copy()
    d_start[gold_tags[0]] -= 1.0
    p.start.grad[:, 0] += scale * d_start
    d_end = unary[n - 1].copy()
    d_end[gold_tags[n - 1]] -= 1.0
    p.end.grad[:, 0] += scale * d_end
    return nll, scale * d_emissions


def oracle_viterbi(emissions, p):
    """One sentence's best path, one step at a time."""
    n, k = emissions.shape
    trans = p.trans.value
    delta = p.start.value[:, 0] + emissions[0]
    backptr = np.empty((n, k), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + trans
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(k)] + emissions[t]
    path = [int(np.argmax(delta + p.end.value[:, 0]))]
    for t in range(n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    return path[::-1]


def brute_force_paths(n, k):
    return itertools.product(range(k), repeat=n)


def brute_force_logz(emissions, p):
    scores = [crf_score(emissions, list(path), p)
              for path in brute_force_paths(emissions.shape[0], p.n_tags)]
    return logsumexp(np.array(scores))


def brute_force_viterbi(emissions, p):
    """Max-score path with ties to the lexicographically smallest path,
    which coincides with smallest-id tie-breaking at every argmax."""
    best_path, best_score = None, -math.inf
    for path in brute_force_paths(emissions.shape[0], p.n_tags):
        s = crf_score(emissions, list(path), p)
        if s > best_score:
            best_path, best_score = list(path), s
    return best_path, best_score


class TestCrfScore:
    def test_single_step_zero_boundaries(self):
        em = np.array([[1.0, 3.0, 2.0]])
        p = crf_params(3)
        for y in range(3):
            assert crf_score(em, [y], p) == em[0, y]

    def test_all_zero_is_zero(self):
        p = crf_params(2)
        em = np.zeros((3, 2))
        for path in brute_force_paths(3, 2):
            assert crf_score(em, list(path), p) == 0.0

    def test_hand_case(self):
        em = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = crf_params(2)
        p.trans.value[...] = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert crf_score(em, [0, 1], p) == 2.0
        assert crf_score(em, [0, 0], p) == 1.5

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            crf_score(np.zeros((2, 2)), [0], crf_params(2))


class TestLogPartition:
    def test_single_step_hand_case(self):
        em = np.array([[1.0, 3.0, 2.0]])
        p = crf_params(3)
        logz, _, _ = crf_log_partition(em, p)
        # Three paths scoring 1, 3 and 2: logZ = 3 + ln(1 + e^-2 + e^-1).
        expect = 3.0 + math.log(1.0 + math.exp(-2.0) + math.exp(-1.0))
        assert logz == pytest.approx(expect, abs=1e-12)
        enumerated = math.log(sum(math.exp(s) for s in (1.0, 3.0, 2.0)))
        assert logz == pytest.approx(enumerated, abs=1e-12)

    def test_uniform_paths(self):
        p = crf_params(2)
        logz, _, _ = crf_log_partition(np.zeros((2, 2)), p)
        assert logz == pytest.approx(math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        emissions, p = random_instance(seed)
        logz, _, _ = crf_log_partition(emissions, p)
        assert logz == pytest.approx(brute_force_logz(emissions, p), abs=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_exp_normalization(self, seed):
        emissions, p = random_instance(seed)
        logz, _, _ = crf_log_partition(emissions, p)
        total = sum(math.exp(crf_score(emissions, list(path), p) - logz)
                    for path in brute_force_paths(emissions.shape[0], p.n_tags))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_timestep_constant_shift(self):
        emissions, p = random_instance(123, n=3, k=3)
        logz, _, _ = crf_log_partition(emissions, p)
        shifted = emissions.copy()
        shifted[1] += 2.5
        logz2, _, _ = crf_log_partition(shifted, p)
        assert logz2 == pytest.approx(logz + 2.5, abs=1e-9)
        assert viterbi(emissions, p)[0] == viterbi(shifted, p)[0]


class TestNllAndGrads:
    def test_d_emission_rows_sum_to_zero(self):
        ems, gold, p = random_batch(5, [4, 1, 3])
        _, d_em = packed_nll(ems, gold, p)
        assert d_em.shape == (8, 3)
        assert np.max(np.abs(d_em.sum(axis=1))) < 1e-12

    def test_overwhelming_gold_nll_vanishes(self):
        p = crf_params(3)
        gold = [[1, 0, 2], [2], [0, 0]]
        ems = [np.zeros((len(g), 3)) for g in gold]
        for em, g in zip(ems, gold):
            em[np.arange(len(g)), g] = 50.0
        nll, _ = packed_nll(ems, gold, p)
        assert 0.0 <= nll < 1e-10

    def test_nll_nonnegative(self):
        for seed in range(20):
            emissions, p = random_instance(seed)
            rng = Rng(seed + 1000)
            gold = [rng.below(p.n_tags) for _ in range(emissions.shape[0])]
            nll, _ = packed_nll([emissions], [gold], p)
            assert nll >= -1e-9
            ems, golds, q = random_batch(seed, [1 + rng.below(4) for _ in range(3)])
            nll, _ = packed_nll(ems, golds, q)
            assert nll >= -1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_grads_match_finite_differences(self, seed):
        ems, gold, p = random_batch(seed, [3, 1, 2])

        def nll_only():
            q = crf_params(3)
            q.trans.value[...] = p.trans.value
            q.start.value[...] = p.start.value
            q.end.value[...] = p.end.value
            val, _ = packed_nll(ems, gold, q)
            return val

        def close(a, numeric):
            # Relative 1e-6 for ordinary magnitudes; near-zero gradients sit
            # at the float64 central-difference noise floor, so allow a tiny
            # absolute slack there.
            return (abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)) < 1e-6
                    or abs(a - numeric) < 1e-8)

        def check(flat, aflat):
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + eps
                lp = nll_only()
                flat[c] = orig - eps
                lm = nll_only()
                flat[c] = orig
                numeric = (lp - lm) / (2.0 * eps)
                assert close(float(aflat[c]), numeric)

        for t in p.params():
            t.grad[...] = 0.0
        _, d_em = packed_nll(ems, gold, p)
        eps = 1e-6
        for tensor in p.params():
            check(tensor.value.reshape(-1), tensor.grad.reshape(-1))
        row = 0
        for em in ems:
            check(em.reshape(-1), d_em[row: row + em.shape[0]].reshape(-1))
            row += em.shape[0]

    def test_scale_applies_to_all_grads(self):
        ems, gold, p = random_batch(9, [3, 2], k=2)
        _, d1 = packed_nll(ems, gold, p)
        g1 = [t.grad.copy() for t in p.params()]
        for t in p.params():
            t.grad[...] = 0.0
        _, d2 = packed_nll(ems, gold, p, scale=0.25)
        for t, g in zip(p.params(), g1):
            assert np.allclose(t.grad, 0.25 * g, atol=1e-15)
        assert np.allclose(d2, 0.25 * d1, atol=1e-15)

    def test_bad_gold_tag_names_sentence_and_position(self):
        ems, gold, p = random_batch(3, [2, 4, 1])
        gold[1][2] = 3
        with pytest.raises(ContractError, match=r"tag id 3 at sentence 1, position 2,"):
            packed_nll(ems, gold, p)
        gold[1][2] = 0
        gold[2][0] = -1
        with pytest.raises(ContractError, match=r"tag id -1 at sentence 2, position 0,"):
            packed_nll(ems, gold, p)

    def test_shape_mismatches_rejected(self):
        ems, gold, p = random_batch(3, [2, 3])
        em, flat = np.vstack(ems), [t for g in gold for t in g]
        with pytest.raises(ContractError, match="5 emission rows vs 4 tags"):
            batch_nll_and_grads(em, flat[:4], pack([2, 3]), p)
        with pytest.raises(ContractError, match="packing has 4"):
            batch_nll_and_grads(em, flat, pack([2, 2]), p)
        with pytest.raises(ContractError, match="params have 3"):
            batch_nll_and_grads(em[:, :2], flat, pack([2, 3]), p)


# Ragged batches: 1-token sentences, equal lengths, a single sentence, ties in
# length, and a long one beside short ones.
BATCHES = [[1, 1, 1], [4, 4, 4], [5], [3, 1, 4, 2, 4], [7, 1, 2]]


class TestPackedAgainstOracle:
    @pytest.mark.parametrize("lengths", BATCHES)
    def test_forward_backward(self, lengths):
        ems, _, p = random_batch(len(lengths), lengths, k=4)
        log_z, alphas, betas = forward_backward(np.vstack(ems), pack(lengths), p)
        assert log_z.shape == (len(lengths),)
        row = 0
        for i, em in enumerate(ems):
            lz, a, b = oracle_log_partition(em, p)
            n = em.shape[0]
            assert abs(log_z[i] - lz) < 1e-12
            assert np.max(np.abs(alphas[row: row + n] - a)) < 1e-12
            assert np.max(np.abs(betas[row: row + n] - b)) < 1e-12
            row += n

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    @pytest.mark.parametrize("lengths", BATCHES)
    def test_nll_and_grads(self, lengths, scale):
        ems, gold, p = random_batch(7 + len(lengths), lengths, k=4)
        self.check_nll_and_grads(ems, gold, p, scale)

    @pytest.mark.parametrize("lengths", BATCHES)
    def test_extreme_scores(self, lengths):
        # Emissions of +-300 and transitions spread over 50: the factored
        # transition gradient neither overflows nor loses the oracle's sum.
        ems, gold, p = random_batch(20 + len(lengths), lengths, k=4)
        ems = [np.where(e > 0.0, 300.0, -300.0) - e for e in ems]
        trans = p.trans.value
        trans[...] = 50.0 * (trans - trans.min()) / (trans.max() - trans.min()) - 25.0
        self.check_nll_and_grads(ems, gold, p, 1.0)
        for t in p.params():
            assert np.all(np.isfinite(t.grad)), t.name

    @staticmethod
    def check_nll_and_grads(ems, gold, p, scale):
        for t in p.params():
            t.grad[...] = 0.0
        nll, d_em = packed_nll(ems, gold, p, scale)
        got = [t.grad.copy() for t in p.params()]
        for t in p.params():
            t.grad[...] = 0.0
        want_nll = 0.0
        want_d = []
        for em, g in zip(ems, gold):
            v, d = oracle_nll_and_grads(em, g, p, scale)
            want_nll += v
            want_d.append(d)
        assert abs(nll - want_nll) < 1e-12
        assert np.max(np.abs(d_em - np.vstack(want_d))) < 1e-12
        for t, g in zip(p.params(), got):
            assert np.max(np.abs(t.grad - g)) < 1e-12, t.name


class TestBatchViterbi:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lengths", BATCHES)
    def test_equals_each_sentence_alone_under_ties(self, lengths, seed):
        ems, _, p = random_batch(seed, lengths, k=3, half_steps=True)
        paths = batch_viterbi(np.vstack(ems), pack(lengths), p).tolist()
        row = 0
        for em in ems:
            n = em.shape[0]
            alone = batch_viterbi(em, pack([n]), p).tolist()
            assert paths[row: row + n] == alone == oracle_viterbi(em, p)
            row += n

    def test_all_ties_pick_tag_zero(self):
        paths = batch_viterbi(np.zeros((6, 3)), pack([2, 3, 1]), crf_params(3))
        assert paths.tolist() == [0] * 6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError, match="packing has 4"):
            batch_viterbi(np.zeros((5, 2)), pack([2, 2]), crf_params(2))


class TestViterbi:
    def test_decoupled_chain_is_argmax(self):
        em = np.array([[1.0, 3.0, 2.0], [0.5, 0.1, 0.9], [2.0, 2.0, 1.0]])
        p = crf_params(3)
        path, score = viterbi(em, p)
        assert path == [1, 2, 0]  # last row ties 0 vs 1 -> smaller id
        assert score == crf_score(em, path, p)

    def test_single_step(self):
        em = np.array([[1.0, 3.0, 2.0]])
        path, score = viterbi(em, crf_params(3))
        assert path == [1] and score == 3.0

    def test_tie_prefers_smaller_id(self):
        em = np.zeros((2, 3))
        path, score = viterbi(em, crf_params(3))
        assert path == [0, 0] and score == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        emissions, p = random_instance(seed)
        path, score = viterbi(emissions, p)
        bf_path, bf_score = brute_force_viterbi(emissions, p)
        assert path == bf_path
        assert score == bf_score or score == pytest.approx(bf_score, abs=0.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_score_dominates_and_equals_crf_score(self, seed):
        emissions, p = random_instance(seed)
        path, score = viterbi(emissions, p)
        assert score == crf_score(emissions, path, p)
        for other in brute_force_paths(emissions.shape[0], p.n_tags):
            assert score >= crf_score(emissions, list(other), p)
