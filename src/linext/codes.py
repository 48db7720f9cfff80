"""Binary linear codes: Reed-Muller construction, exhaustive weight
enumeration, dual codes, and the MacWilliams transform.

Weight counts are exact Python integers throughout; they overflow no
machine word for large dimensions and the MacWilliams sums cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from .errors import InfeasibleError
from .gf2 import BitMatrix, rank, row_reduce, subset_xor_table

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
            raise ValueError(
                f"need {self.n + 1} counts for block length {self.n}, "
                f"got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("negative weight count")
        if self.counts[0] != 1:
            raise ValueError(f"A_0 must be 1, got {self.counts[0]}")
        if sum(self.counts) != 1 << self.k:
            raise ValueError(
                f"counts sum to {sum(self.counts)}, expected 2^{self.k}"
            )

    def nonzero(self):
        """(weight, count) pairs with count > 0, ascending weight."""
        return [(l, c) for l, c in enumerate(self.counts) if c]


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by a full-rank generator matrix."""

    generator: BitMatrix
    label: str = ""
    weights: Optional[WeightDistribution] = None

    def __post_init__(self):
        if rank(self.generator) != self.generator.rows:
            raise ValueError(
                f"generator matrix is rank-deficient: rank "
                f"{rank(self.generator)} < {self.generator.rows} rows"
            )
        if self.weights is not None:
            if (self.weights.n, self.weights.k) != (self.n, self.k):
                raise ValueError(
                    f"attached weight distribution is for an "
                    f"[{self.weights.n},{self.weights.k}] code, "
                    f"generator is [{self.n},{self.k}]"
                )

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
    n = 1 << m
    points = np.arange(n, dtype=np.uint32)
    var = ((points[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1).astype(
        np.uint8
    )
    rows = []
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            row = np.ones(n, np.uint8)
            for i in subset:
                row &= var[i]
            rows.append(row)
    dense = np.array(rows, np.uint8)
    return LinearCode(BitMatrix.from_dense(dense), label=f"RM({r},{m})")


def _trailing_zeros(t: int) -> int:
    return (t & -t).bit_length() - 1


def codeword_weights(G: BitMatrix):
    """Yield (h, weights) for every codeword uG, 2^lo messages at a time.

    weights[j] is the Hamming weight of uG for message u = h·2^lo + j, where
    bit i of u selects generator row i and lo = min(k, 16). The low rows
    are expanded once into a table of partial codewords; the high rows are
    walked in Gray-code order (so h is not monotone), each step XORing a
    single row across the whole table before the packed-word popcount.
    Memory stays at one table, whatever n and k are.
    """
    k = G.rows
    lo = min(k, _TABLE_BITS)
    table = subset_xor_table(G.words[:lo])
    cur = np.zeros(G.words.shape[1], dtype=G.words.dtype)
    for t in range(1 << (k - lo)):
        if t:
            cur = cur ^ G.words[lo + _trailing_zeros(t)]
        yield t ^ (t >> 1), np.bitwise_count(table ^ cur).sum(axis=1, dtype=np.int64)


def enumerate_weights(code: LinearCode, cap: int = ENUMERATION_CAP) -> WeightDistribution:
    """Exact weight distribution by visiting all 2^k codewords.

    Histograms the weights of the codeword_weights walk.
    """
    G = code.generator
    k, n = G.rows, G.cols
    if k > cap:
        raise InfeasibleError(
            f"dimension {k} too large to enumerate (cap {cap}); use the "
            f"MacWilliams route via the dual or supply an external "
            f"weight distribution"
        )
    counts = np.zeros(n + 1, np.int64)
    for _, w in codeword_weights(G):
        counts += np.bincount(w, minlength=n + 1)
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
    G = code.generator
    k, n = G.rows, G.cols
    rref, pivots = row_reduce(G.to_dense())
    if len(pivots) < k:
        raise ValueError(
            f"generator matrix is rank-deficient: rank {len(pivots)} < {k} rows"
        )
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    h = np.zeros((len(free), n), np.uint8)
    h[:, free] = np.eye(len(free), dtype=np.uint8)
    h[:, pivots] = rref[:, free].T
    return LinearCode(BitMatrix.from_dense(h), label=_dual_label(code))


def _dual_label(code: LinearCode) -> str:
    return f"dual({code.label})" if code.label else "dual"


def krawtchouk(n: int, j: int, l: int) -> int:
    """Krawtchouk value K_j(l) = Σ_s (-1)^s C(l,s) C(n-l, j-s), exact."""
    total = 0
    for s in range(max(0, j - (n - l)), min(j, l) + 1):
        term = math.comb(l, s) * math.comb(n - l, j - s)
        total += -term if s & 1 else term
    return total


def macwilliams_transform(dual_weights: WeightDistribution) -> WeightDistribution:
    """Weight distribution of C from the exact distribution of its dual.

    A_j(C) = 2^-(n-k) Σ_l A_l(C⊥) K_j(l); every division must come out
    exact, otherwise the input distribution was not a valid dual.
    """
    n, k_dual = dual_weights.n, dual_weights.k
    denom = 1 << k_dual
    counts = []
    for j in range(n + 1):
        total = sum(
            c * krawtchouk(n, j, l) for l, c in enumerate(dual_weights.counts) if c
        )
        q, rem = divmod(total, denom)
        if rem or q < 0:
            raise ValueError(
                f"MacWilliams transform gave a non-exact count at weight {j}; "
                f"the input is not the weight distribution of a dual code"
            )
        counts.append(q)
    return WeightDistribution(n, n - k_dual, tuple(counts))


def weight_distribution(
    code: LinearCode, cap: int = ENUMERATION_CAP
) -> Tuple[WeightDistribution, str]:
    """Weight distribution plus the route taken: external | enumerate | macwilliams.

    Enumerates directly when k fits the cap, goes through the dual when
    only n-k does, and otherwise demands an externally supplied file.
    """
    if code.weights is not None:
        return code.weights, "external"
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
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("line 1: missing header 'n k'")
    head = lines[0].split()
    try:
        if len(head) != 2:
            raise ValueError
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"line 1: expected header 'n k', got {lines[0]!r}") from None
    if n < 1 or k < 0:
        raise ValueError(f"line 1: invalid parameters n={n}, k={k}")
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
