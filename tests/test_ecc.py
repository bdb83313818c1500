"""Tests for the SEC-DED ECC and its yield model."""

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.sram.ecc import (
    HammingSecDed,
    memory_failure_with_ecc,
    word_failure_probability,
)


@pytest.fixture(scope="module")
def code():
    return HammingSecDed(64)


class TestCodeStructure:
    def test_72_64_geometry(self, code):
        assert code.k == 64
        assert code.r == 7
        assert code.n == 72
        assert code.overhead == pytest.approx(8 / 64)

    def test_small_codes(self):
        # Classic (8, 4) extended Hamming.
        small = HammingSecDed(4)
        assert small.n == 8
        with pytest.raises(ValueError):
            HammingSecDed(0)


class TestEncodeDecode:
    def test_roundtrip_clean(self, code, rng):
        data = (rng.random((50, 64)) < 0.5).astype(np.uint8)
        decoded = code.decode(code.encode(data))
        np.testing.assert_array_equal(decoded.data, data)
        assert not decoded.corrected.any()
        assert not decoded.detected.any()

    def test_single_error_corrected_everywhere(self, code, rng):
        """Flip every codeword position in turn; all must correct."""
        data = (rng.random(64) < 0.5).astype(np.uint8)
        word = code.encode(data)
        block = np.tile(word, (code.n, 1))
        block[np.arange(code.n), np.arange(code.n)] ^= 1
        decoded = code.decode(block)
        np.testing.assert_array_equal(
            decoded.data, np.tile(data, (code.n, 1))
        )
        assert not decoded.detected.any()

    def test_double_errors_detected_not_miscorrected(self, code, rng):
        data = (rng.random(64) < 0.5).astype(np.uint8)
        word = code.encode(data)
        flagged = 0
        trials = 200
        for _ in range(trials):
            i, j = rng.choice(code.n, size=2, replace=False)
            corrupted = word.copy()
            corrupted[i] ^= 1
            corrupted[j] ^= 1
            decoded = code.decode(corrupted[None, :])
            flagged += bool(decoded.detected[0])
        assert flagged == trials  # SEC-DED guarantees double detection

    def test_shape_validation(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(63, dtype=np.uint8))
        with pytest.raises(ValueError):
            code.decode(np.zeros(71, dtype=np.uint8))


class TestYieldModel:
    def test_word_probability_matches_binomial(self):
        p = 1e-3
        direct = word_failure_probability(p, 72)
        expected = float(sp_stats.binom.sf(1, 72, p))
        assert direct == pytest.approx(expected)

    def test_word_probability_matches_decoder(self, code, rng):
        """The statistical model agrees with hammering the real decoder."""
        p = 0.01
        trials = 30_000
        errors = rng.random((trials, code.n)) < p
        # A word fails iff it has >= 2 hard errors (the decoder corrects
        # exactly one).
        data = np.zeros((trials, 64), dtype=np.uint8)
        words = code.encode(data) ^ errors.astype(np.uint8)
        decoded = code.decode(words)
        wrong = (decoded.data != 0).any(axis=-1) | decoded.detected
        empirical = wrong.mean()
        analytic = word_failure_probability(p, code.n)
        assert empirical == pytest.approx(analytic, rel=0.15)

    def test_memory_failure_scales_with_words(self):
        p = 1e-4
        one = memory_failure_with_ecc(p, 1)
        many = memory_failure_with_ecc(p, 1000)
        assert many == pytest.approx(1 - (1 - one) ** 1000, rel=1e-9)

    def test_ecc_beats_nothing_but_loses_to_redundancy_on_hard_faults(self):
        """At equal 12.5% overhead, column redundancy beats SEC-DED for
        *hard* parametric faults — ECC burns its single correction on
        the permanent defect."""
        from repro.failures import memory_failure_probability
        from repro.sram.array import ArrayOrganization

        p_cell = 2e-5
        n_cells = 64 * 1024 * 8
        # ECC: 72-bit words covering the same data capacity.
        p_ecc = memory_failure_with_ecc(p_cell, n_cells // 64, word_bits=72)
        # Redundancy at the same 12.5% overhead.
        org = ArrayOrganization(rows=256, columns=2048,
                                redundant_columns=256)
        p_red = memory_failure_probability(p_cell, org)
        # No protection.
        p_none = 1 - (1 - p_cell) ** n_cells
        assert p_ecc < p_none
        assert p_red < p_ecc

    def test_validation(self):
        with pytest.raises(ValueError):
            word_failure_probability(1e-3, 0)
        with pytest.raises(ValueError):
            memory_failure_with_ecc(1e-3, 0)
