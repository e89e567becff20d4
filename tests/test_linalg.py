"""Stable scalar kernels, Glorot init, and the seeded RNG."""

import math

import numpy as np
import pytest

from hierex.linalg import ContractError, Rng, glorot_init, logsumexp, sigmoid

# First 16 uniforms for seed 42, frozen after cross-checking the raw
# splitmix64 word stream against its published seed-0 test vector.
GOLDEN_UNIFORMS_SEED_42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
    0.03803016854024621,
    0.8682280765465323,
    0.21840519371218436,
    0.8006318767135033,
    0.3399310389170206,
    0.6184820663561348,
    0.20490183179877552,
    0.4929891857946924,
    0.5133961163221494,
    0.5200132996032402,
    0.6651594107997011,
    0.20343510930023068,
]

# Published splitmix64 output words for seed 0 (canonical reference stream).
SPLITMIX64_SEED0_WORDS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestScalarMaps:
    def test_zero_cases(self):
        assert sigmoid(np.zeros((1, 1)))[0, 0] == 0.5

    def test_sigmoid_extreme_negative_no_overflow(self):
        val = float(sigmoid(np.array([-710.0]))[0])
        assert 0.0 < val <= 1e-300

    def test_sigmoid_extreme_positive(self):
        assert float(sigmoid(np.array([710.0]))[0]) == 1.0

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-30.0, 30.0, 601)
        total = sigmoid(xs) + sigmoid(-xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-15


class TestLogsumexp:
    def test_single_element(self):
        assert logsumexp(np.array([3.25])) == 3.25

    def test_two_zeros_is_ln2(self):
        assert logsumexp(np.array([0.0, 0.0])) == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_large_inputs_shift(self):
        out = logsumexp(np.array([1000.0, 1000.0]))
        assert math.isfinite(out)
        assert out == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_empty_is_contract_error(self):
        with pytest.raises(ContractError):
            logsumexp(np.array([]))

    def test_constant_shift_property(self):
        rng = Rng(23)
        for _ in range(25):
            v = np.array([rng.uniform() * 10 - 5 for _ in range(rng.below(6) + 1)])
            c = rng.uniform() * 100 - 50
            assert abs(logsumexp(v + c) - (logsumexp(v) + c)) <= 1e-12

    def test_axis_reduction_matches_rows(self):
        m = np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]])
        rows = logsumexp(m, axis=1)
        assert rows[0] == pytest.approx(logsumexp(m[0]))
        assert rows[1] == pytest.approx(5.0 + math.log(3.0))


class TestRng:
    def test_splitmix64_reference_stream(self):
        r = Rng(0)
        assert [r.next_u64() for _ in range(3)] == SPLITMIX64_SEED0_WORDS

    def test_golden_vector_seed_42(self):
        r = Rng(42)
        assert [r.uniform() for _ in range(16)] == GOLDEN_UNIFORMS_SEED_42

    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_uniform_range(self):
        r = Rng(77)
        for _ in range(5000):
            u = r.uniform()
            assert 0.0 <= u < 1.0

    def test_uniform_mean(self):
        r = Rng(1)
        mean = sum(r.uniform() for _ in range(100_000)) / 100_000
        assert 0.49 <= mean <= 0.51

    def test_gauss_moments(self):
        r = Rng(1)
        xs = np.array([r.gauss() for _ in range(100_000)])
        assert abs(float(xs.mean())) < 0.02
        assert 0.97 <= float(xs.var()) <= 1.03

    def test_below_bounds_and_error(self):
        r = Rng(4)
        assert all(0 <= r.below(7) < 7 for _ in range(2000))
        with pytest.raises(ContractError):
            r.below(0)

    def test_shuffle_is_permutation_and_deterministic(self):
        xs = list(range(20))
        a, b = xs[:], xs[:]
        Rng(6).shuffle(a)
        Rng(6).shuffle(b)
        assert a == b
        assert sorted(a) == xs
        assert a != xs  # vanishingly unlikely to be identity


class TestGlorot:
    def test_bounds(self):
        m = glorot_init(10, 10, Rng(3))
        limit = math.sqrt(6.0 / 20.0)
        assert np.all(m >= -limit) and np.all(m <= limit)

    def test_deterministic(self):
        assert np.array_equal(glorot_init(4, 4, Rng(3)), glorot_init(4, 4, Rng(3)))

    def test_seed_sensitivity(self):
        assert not np.array_equal(glorot_init(4, 4, Rng(0)), glorot_init(4, 4, Rng(1)))

    def test_zero_dim_rejected(self):
        with pytest.raises(ContractError):
            glorot_init(0, 3, Rng(0))
