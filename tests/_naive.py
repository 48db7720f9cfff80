"""Naive reference implementations used as independent test oracles.

Everything here recomputes from first principles (dense arithmetic,
exhaustive enumeration, exact rationals) so the bit-packed production code
is never checked against itself. The three stream helpers convert between
a BitStream and one 0/1 value per bit with numpy's own packbits and
unpackbits.
"""

import math
from fractions import Fraction

import numpy as np

from linext.gf2 import BitMatrix, rank
from linext.pipeline import BitStream


def to_stream(bits) -> BitStream:
    """The stream of a sequence of 0/1 values."""
    bits = np.asarray(bits, np.uint8)
    return BitStream.from_bytes(np.packbits(bits), bits.size)


def stream_bits(s: BitStream) -> np.ndarray:
    """The bits of a stream, one 0/1 uint8 value each."""
    return np.unpackbits(s.data, count=s.nbits)


def stream_key(s: BitStream) -> tuple:
    """(nbits, packed bytes): equal exactly for streams of equal bits."""
    return s.nbits, s.data.tobytes()


def naive_matvec(dense: np.ndarray, xbits: np.ndarray) -> np.ndarray:
    """Per-bit dense matrix-vector product mod 2."""
    return (dense.astype(np.int64) @ xbits.astype(np.int64)) % 2


def all_messages(k: int, start: int = 0, stop: int = None) -> np.ndarray:
    """Message vectors start .. stop - 1 (default all 2^k) as a
    (stop - start, k) array, LSB-first."""
    m = np.arange(start, (1 << k) if stop is None else stop, dtype=np.int64)
    return ((m[:, None] >> np.arange(k, dtype=np.int64)) & 1).astype(np.uint8)


def naive_codeword_weights(dense: np.ndarray) -> np.ndarray:
    """wt(uG) for every message u in 0 .. 2^k - 1, each codeword recomputed
    from scratch as a dense product, 2^12 messages at a time, so memory
    stays small at k = 20. The float product sums at most k ones per
    entry, so it is exact."""
    k, rows = dense.shape[0], dense.astype(np.float64)
    return np.concatenate([
        ((all_messages(k, i, min(i + 4096, 1 << k)) @ rows).astype(np.int64) & 1).sum(axis=1)
        for i in range(0, 1 << k, 4096)
    ])


def naive_weight_counts(dense: np.ndarray) -> list:
    """Weight counts by recomputing every codeword from scratch."""
    return np.bincount(naive_codeword_weights(dense), minlength=dense.shape[1] + 1).tolist()


def random_full_rank(rng: np.random.Generator, k: int, n: int) -> BitMatrix:
    """Rejection-sample a full-row-rank random k x n binary matrix."""
    while True:
        dense = rng.integers(0, 2, (k, n), dtype=np.uint8)
        G = BitMatrix.from_dense(dense)
        if rank(G) == k:
            return G


def exact_pmf_fractions(dense: np.ndarray, eps: Fraction) -> list:
    """Exact rational output pmf of y = G·x under the biased IID source.

    Bucket index packs output bits LSB-first by row, matching the
    production oracle's convention. Feasible for small n only.
    """
    k, n = dense.shape
    rho = {0: Fraction(1, 2) + eps / 2, 1: Fraction(1, 2) - eps / 2}
    pmf = [Fraction(0)] * (1 << k)
    for x in range(1 << n):
        xbits = [(x >> j) & 1 for j in range(n)]
        p = Fraction(1)
        for b in xbits:
            p *= rho[b]
        bucket = 0
        for i in range(k):
            y = 0
            for j in range(n):
                y ^= dense[i, j] & xbits[j]
            bucket |= y << i
        pmf[bucket] += p
    return pmf


def krawtchouk(n: int, j: int, l: int) -> int:
    """Krawtchouk value K_j(l) = Σ_s (-1)^s C(l,s) C(n-l, j-s), exact."""
    total = 0
    for s in range(max(0, j - (n - l)), min(j, l) + 1):
        term = math.comb(l, s) * math.comb(n - l, j - s)
        total += -term if s & 1 else term
    return total


def naive_macwilliams(dual) -> list:
    """A_j(C) = 2^-(n-k) Σ_l A_l(C⊥) K_j(l) as exact rationals, every K_j(l)
    a binomial sum; dual is the WeightDistribution of C⊥."""
    terms = [(l, c) for l, c in enumerate(dual.counts) if c]
    return [
        Fraction(sum(c * krawtchouk(dual.n, j, l) for l, c in terms), 1 << dual.k)
        for j in range(dual.n + 1)
    ]


def von_neumann_reference(bits) -> list:
    """Plain-Python pairwise debiasing."""
    out = []
    for i in range(0, len(bits) - 1, 2):
        a, b = bits[i], bits[i + 1]
        if a != b:
            out.append(int(a))
    return out
