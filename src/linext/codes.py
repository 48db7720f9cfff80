"""Binary linear codes: Reed-Muller construction, exhaustive weight
enumeration, dual codes, and the MacWilliams transform.

Weight counts are exact Python integers throughout; they overflow no
machine word for large dimensions and the MacWilliams sums cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import numpy as np

from .errors import InfeasibleError
from .gf2 import (BLOCK_LENGTH_CAP, BitMatrix, check_size, parse_header, rank, row_reduce,
                  subset_xor_table)

ENUMERATION_CAP = 28
_TABLE_BITS = 16


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts per Hamming weight for an [n, k] code."""

    n: int
    k: int
    counts: Tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError(f"need {self.n + 1} counts for block length {self.n}, "
                             f"got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative weight count")
        if self.counts[0] != 1:
            raise ValueError(f"A_0 must be 1, got {self.counts[0]}")
        if sum(self.counts) != 1 << self.k:
            raise ValueError(f"counts sum to {sum(self.counts)}, expected 2^{self.k}")

    def nonzero(self):
        """(weight, count) pairs with count > 0, ascending weight."""
        return [(l, c) for l, c in enumerate(self.counts) if c]


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by a full-rank generator matrix."""

    generator: BitMatrix
    label: str = ""

    def __post_init__(self):
        if (r := rank(self.generator)) != self.k:
            raise ValueError(f"generator matrix is rank-deficient: rank {r} < {self.k} rows")

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows


def rm_generator(r: int, m: int) -> LinearCode:
    """Reed-Muller RM(r, m) generator.

    Rows are evaluations of the monomials of degree <= r in m boolean
    variables, ascending degree then lexicographic variable subsets;
    evaluation points run 0 .. 2^m - 1 with variable i taken from bit i of
    the point index. This ordering is fixed so serialized matrices are
    byte-for-byte reproducible.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if m >= BLOCK_LENGTH_CAP.bit_length():  # checked before 2^m is formed
        raise InfeasibleError(f"RM({r},{m}) has block length 2^{m}, "
                              f"over the cap {BLOCK_LENGTH_CAP}")
    n = 1 << m
    check_size(n, sum(math.comb(m, deg) for deg in range(r + 1)))
    points = np.arange(n, dtype=np.uint32)
    var = ((points[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)
    rows = []
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            row = np.ones(n, np.uint8)
            for i in subset:
                row &= var[i]
            rows.append(row)
    dense = np.array(rows, np.uint8)
    return LinearCode(BitMatrix.from_dense(dense), label=f"RM({r},{m})")


def codeword_weights(rows: np.ndarray, dt):
    """Yield (h, weights) for every codeword uR, 2^lo messages at a time.

    rows is a k x m array of 0/1 values (m = 0 allowed), row i of R selected
    by bit i of u. weights[j] is the Hamming weight of uR for message
    u = h·2^lo + j, in dtype dt, which must hold m. The low rows are
    expanded once into a table of partial codewords; the high rows are
    walked in Gray-code order (so h is not monotone), each step XORing a
    single row across the whole table before the popcount. lo = min(k, 16)
    up to two words per codeword (m <= 128) and shrinks as the word count W
    grows, so the one table holds at most 2^20 bytes whatever m and k are.
    The table is byte-major, (ceil(m/8), 2^lo) uint8, so byte c of every
    partial codeword is one contiguous row: a step XORs each row with one
    scalar into a reused buffer, popcounts it in place and sums the rows.
    np.bitwise_count is SIMD on uint8, scalar on uint64 (numpy 2.4: 38 us for
    2^19 bytes, 48 for 2^16 words).
    """
    rows = np.packbits(rows, axis=1, bitorder="little")
    k, W = rows.shape[0], (rows.shape[1] + 7) // 8
    lo = min(k, _TABLE_BITS - max(0, (W - 1).bit_length() - 1))
    table = subset_xor_table(rows[:lo].T[:, :, None])[:, :, 0]
    buf, cur = np.empty_like(table), np.zeros(rows.shape[1], np.uint8)
    for t in range(1 << (k - lo)):
        if t:
            cur ^= rows[lo + (t & -t).bit_length() - 1]  # t's lowest set bit
        np.bitwise_xor(table, cur[:, None], out=buf)
        yield t ^ (t >> 1), np.bitwise_count(buf, out=buf).sum(axis=0, dtype=dt)


def enumerate_weights(code: LinearCode, cap: int = ENUMERATION_CAP) -> WeightDistribution:
    """Exact weight distribution by visiting all 2^k codewords.

    Row operations keep the code and column order keeps weights, so G is
    row-reduced once. In that basis the k pivot columns of uG are u itself,
    so wt(uG) = popcount(u) + wt(uP), where P is the k x (n-k) block of the
    other columns, and codeword_weights walks P alone. A chunk
    u = h·2^lo + j adds popcount(j), a vector made once, and the scalar
    popcount(h), in min_scalar_type(n), which may be wider than P needs.

    For n <= 255 and k >= 1 a chunk holds an even number of one-byte
    weights, so its uint16 view keys two adjacent codewords, a + 256·b, in
    one bincount; the joint counts J[b, a] fold once into
    A = J.sum(axis=1) + J[:, :n+1].sum(axis=0), the sum of both marginals,
    so byte order does not matter. Otherwise (n > 255, or k = 0: one
    codeword) the weights are counted one by one. On [40,28] (2-core Xeon
    VM, numpy 2.4) a step of 2^16 codewords spends 31 us on XOR, popcount
    and row sum over the 2 parity bytes, against 70 us over all 5 bytes of
    uG, and about 70 us on the bincount, now the larger part.
    """
    G = code.generator
    k, n = G.rows, G.cols
    if k > cap:
        raise InfeasibleError(f"dimension {k} too large to enumerate (cap {cap}); use the "
                              f"MacWilliams route via the dual or supply an external "
                              f"weight distribution")
    rref, pivots = row_reduce(G.to_dense())  # full rank, as LinearCode checks
    dt, pair = np.min_scalar_type(n), k > 0 and n < 256
    counts = np.zeros(256 * (n + 1) if pair else n + 1, np.int64)
    low = np.bitwise_count(np.arange(1 << min(k, _TABLE_BITS))).astype(dt)  # popcount(j)
    for h, w in codeword_weights(np.delete(rref, pivots, axis=1), dt):
        w += low[: w.size]
        w += h.bit_count()
        counts += np.bincount(w.view(np.uint16) if pair else w, minlength=counts.size)
    if pair:
        J = counts.reshape(n + 1, 256)
        counts = J.sum(axis=1) + J[:, : n + 1].sum(axis=0)
    return WeightDistribution(n, k, tuple(int(c) for c in counts))


def min_distance(w: WeightDistribution) -> int:
    """Smallest nonzero weight with a codeword; needs k >= 1."""
    if w.k < 1:
        raise ValueError("minimum distance is undefined for the trivial code")
    for l in range(1, w.n + 1):
        if w.counts[l]:
            return l
    raise AssertionError("unreachable: sum invariant guarantees a nonzero codeword")


def dual_generator(code: LinearCode) -> LinearCode:
    """Generator H of the dual code: (n-k) x n, full rank, G·Hᵀ = 0."""
    rref, pivots = row_reduce(code.generator.to_dense())  # full rank, as LinearCode checks
    free = sorted(set(range(code.n)) - set(pivots))
    h = np.zeros((len(free), code.n), np.uint8)
    h[:, free] = np.eye(len(free), dtype=np.uint8)
    h[:, pivots] = rref[:, free].T
    return LinearCode(BitMatrix.from_dense(h), f"dual({code.label})" if code.label else "dual")


def macwilliams_transform(dual_weights: WeightDistribution) -> WeightDistribution:
    """Weight distribution of C from the exact distribution of its dual.

    A_j(C) = 2^-(n-k) Σ_l A_l(C⊥) K_j(l); every division must come out
    exact, otherwise the input distribution was not a valid dual. Each
    column K_0(l), K_1(l), ... of Krawtchouk values comes from the
    recurrence (j+1)·K_{j+1} = (n-2l)·K_j - (n-j+1)·K_{j-1}, whose
    divisions are exact, so the transform costs O(n) big-integer steps per
    nonzero A_l(C⊥).
    """
    n, k_dual = dual_weights.n, dual_weights.k
    denom = 1 << k_dual
    totals = [0] * (n + 1)
    for l, c in dual_weights.nonzero():
        prev, cur = 0, 1  # K_{j-1}(l), K_j(l) at j = 0
        for j in range(n + 1):
            totals[j] += c * cur
            prev, cur = cur, ((n - 2 * l) * cur - (n - j + 1) * prev) // (j + 1)
    counts = []
    for j, total in enumerate(totals):
        q, rem = divmod(total, denom)
        if rem or q < 0:
            raise ValueError(f"MacWilliams transform gave a non-exact count at weight {j}; "
                             f"the input is not the weight distribution of a dual code")
        counts.append(q)
    return WeightDistribution(n, n - k_dual, tuple(counts))


def weight_distribution(
    code: LinearCode, cap: int = ENUMERATION_CAP
) -> Tuple[WeightDistribution, str]:
    """Weight distribution plus the route taken: enumerate | macwilliams.

    Enumerates directly when k fits the cap, goes through the dual when
    only n-k does, and otherwise demands an externally supplied file.
    """
    k, n = code.k, code.n
    if k <= cap:
        return enumerate_weights(code, cap), "enumerate"
    if n - k <= cap:
        dual = dual_generator(code)
        return macwilliams_transform(enumerate_weights(dual, cap)), "macwilliams"
    raise InfeasibleError(
        f"[{n},{k}] code: neither k={k} nor n-k={n - k} is within the "
        f"enumeration cap {cap}; supply an external weight distribution (--weights FILE)"
    )


def parse_weights(text: str) -> WeightDistribution:
    """Parse the weight file format: header "n k", then "l A_l" lines."""
    lines, n, k = parse_header(text, "n k")
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"line 1: invalid parameters n={n}, k={k}")
    check_size(n)
    counts = [0] * (n + 1)
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            l, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {idx}: expected 'weight count', got {line!r}") from None
        if not 0 <= l <= n:
            raise ValueError(f"line {idx}: weight {l} outside 0..{n}")
        if c < 0:
            raise ValueError(f"line {idx}: negative count {c}")
        if counts[l]:
            raise ValueError(f"line {idx}: duplicate weight {l}")
        counts[l] = c
    return WeightDistribution(n, k, tuple(counts))


def serialize_weights(w: WeightDistribution) -> str:
    """Inverse of parse_weights; emits nonzero counts only."""
    lines = [f"{w.n} {w.k}"]
    lines.extend(f"{l} {c}" for l, c in w.nonzero())
    return "\n".join(lines) + "\n"
