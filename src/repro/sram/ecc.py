"""SEC-DED error-correcting code and its yield model.

Column redundancy (the paper's repair resource) and ECC are the two
classic yield-enhancement knobs for embedded SRAM; this module provides
the ECC side so the two can be compared at equal overhead:

* :class:`HammingSecDed` — a real extended-Hamming encoder/decoder
  (single-error correction, double-error detection), vectorised over
  words;
* :func:`word_failure_probability` / :func:`memory_failure_with_ecc` —
  the statistical model: a SEC-DED word survives one bad cell, so the
  per-word failure is the two-or-more tail of a binomial.

Parametric failures are *hard* (a failing cell fails on every access),
so ECC spends its single correction permanently — which is why the
paper's redundancy+tuning approach wins for parametric yield while ECC
is reserved for soft errors in practice.  The ``ext`` experiment in the
benchmark suite quantifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.distributions import binomial_sf


def _parity_check_matrix(n_data: int) -> tuple[np.ndarray, int]:
    """H matrix (r x n) of a Hamming code covering ``n_data`` data bits.

    Columns are the binary representations of 1..n; positions that are
    powers of two carry parity bits.  Returns (H, r).
    """
    r = 1
    while (1 << r) < n_data + r + 1:
        r += 1
    n = n_data + r
    h = np.zeros((r, n), dtype=np.uint8)
    for position in range(1, n + 1):
        for bit in range(r):
            h[bit, position - 1] = (position >> bit) & 1
    return h, r


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding a block of words.

    Attributes:
        data: corrected data bits, shape (..., k).
        corrected: words where a single error was fixed.
        detected: words with an uncorrectable (double) error.
    """

    data: np.ndarray
    corrected: np.ndarray
    detected: np.ndarray


class HammingSecDed:
    """Extended Hamming code: SEC-DED over ``n_data`` bits per word.

    The default (64 data bits -> 72-bit codeword) is the ubiquitous
    (72, 64) memory ECC: 8 check bits, 12.5% overhead.
    """

    def __init__(self, n_data: int = 64) -> None:
        if n_data < 1:
            raise ValueError(f"n_data must be positive, got {n_data}")
        self.k = n_data
        self._h, self.r = _parity_check_matrix(n_data)
        self.n = self.k + self.r + 1  # +1 overall parity bit (DED)
        powers = {1 << i for i in range(self.r)}
        #: Codeword positions (0-based) of the data bits.
        self.data_positions = np.array(
            [p - 1 for p in range(1, self.k + self.r + 1) if p not in powers],
            dtype=np.intp,
        )
        #: Codeword positions of the Hamming parity bits.
        self.parity_positions = np.array(
            sorted(p - 1 for p in powers), dtype=np.intp
        )

    @property
    def overhead(self) -> float:
        """Check-bit overhead (n - k) / k."""
        return (self.n - self.k) / self.k

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode data bits (shape (..., k), 0/1) into codewords (..., n)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] != self.k:
            raise ValueError(
                f"last axis must be {self.k} data bits, got {data.shape[-1]}"
            )
        shape = data.shape[:-1] + (self.n,)
        code = np.zeros(shape, dtype=np.uint8)
        code[..., self.data_positions] = data
        # Hamming parity bits: parity over the covered positions.
        inner = code[..., : self.k + self.r]
        for bit in range(self.r):
            covered = self._h[bit].astype(bool)
            parity = inner[..., covered].sum(axis=-1) % 2
            # The parity position itself is covered; since it is still
            # zero, the computed parity is exactly the required value.
            code[..., self.parity_positions[bit]] = parity
        # Overall parity bit for double-error detection.
        code[..., -1] = code[..., :-1].sum(axis=-1) % 2
        return code

    def decode(self, code: np.ndarray) -> DecodeResult:
        """Decode codewords (..., n); correct singles, flag doubles."""
        code = np.asarray(code, dtype=np.uint8)
        if code.shape[-1] != self.n:
            raise ValueError(
                f"last axis must be {self.n} code bits, got {code.shape[-1]}"
            )
        work = code.copy()
        inner = work[..., : self.k + self.r]
        syndrome = np.zeros(code.shape[:-1], dtype=np.intp)
        for bit in range(self.r):
            covered = self._h[bit].astype(bool)
            parity = inner[..., covered].sum(axis=-1) % 2
            syndrome = syndrome | (parity.astype(np.intp) << bit)
        overall = work.sum(axis=-1) % 2  # includes the extra parity bit

        # Classification:  syndrome != 0 & overall parity wrong -> single
        # error at `syndrome` (1-based position), correctable.  syndrome
        # != 0 & overall parity right -> double error, detected.
        # syndrome == 0 & overall wrong -> error in the extra parity bit.
        # A syndrome pointing beyond the codeword (possible with >= 3
        # errors) is uncorrectable and flagged as detected.
        in_range = syndrome <= self.k + self.r
        single = (syndrome != 0) & (overall == 1) & in_range
        double = ((syndrome != 0) & (overall == 0)) | (
            (syndrome != 0) & (overall == 1) & ~in_range
        )
        if np.any(single):
            index = np.nonzero(single)
            flip = syndrome[index] - 1
            work[index + (flip,)] ^= 1
        return DecodeResult(
            data=work[..., self.data_positions],
            corrected=single,
            detected=double,
        )


def word_failure_probability(p_cell: float, word_bits: int) -> float:
    """P(>= 2 bad cells in a word) — what SEC-DED cannot absorb."""
    if word_bits < 1:
        raise ValueError(f"word_bits must be positive, got {word_bits}")
    return binomial_sf(1, word_bits, min(max(p_cell, 0.0), 1.0))


def memory_failure_with_ecc(
    p_cell: float, n_words: int, word_bits: int = 72
) -> float:
    """P(memory fails) with per-word SEC-DED and no other repair.

    The memory fails when *any* word carries two or more hard-failing
    cells.  Evaluated stably through logs for tiny probabilities.
    """
    if n_words < 1:
        raise ValueError(f"n_words must be positive, got {n_words}")
    p_word = word_failure_probability(p_cell, word_bits)
    if p_word >= 1.0:
        return 1.0
    return float(-np.expm1(n_words * np.log1p(-p_word)))
