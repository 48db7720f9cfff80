"""Binary linear codes: Reed-Muller construction, exhaustive weight
enumeration, dual codes, and the MacWilliams transform.

Weight counts are exact Python integers throughout; they overflow no
machine word for large dimensions and the MacWilliams sums cancel exactly.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import numpy as np

from .errors import InfeasibleError
from .gf2 import (BLOCK_LENGTH_CAP, BitMatrix, check_size, parse_header, rank, row_reduce,
                  subset_xor_table)

ENUMERATION_CAP = 28
# Hard ceiling on k for any enumeration, whatever cap a caller passes. One
# core walks about 4.5·10^8 codewords/s (2-core VM, numpy 2.4: 0.49 s for a
# [40,28] code, 0.16 s for a [66,26] one), so 2^40 codewords take about 40
# minutes, and each further dimension doubles that.
ENUMERATION_CEILING = 40
_TABLE_BITS = 16
# Fewest Gray-code steps a forked part of enumerate_weights walks. On the same
# VM, with linext imported, a fork round trip (map the rows, fork, add to one
# row, exit, reap, sum) costs 1.8-2.7 ms (medians of 50 in five runs) and a
# step of 2^16 codewords 96-120 us on [40,28], more on wider P, so a part of
# 256 steps runs at least 25 ms and pays for its fork with about a tenth of
# that at most.
MIN_PART_STEPS = 256


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


def _table_bits(k: int, m: int) -> int:
    """lo, the number of low rows codeword_weights expands into its table
    for a k x m matrix: min(k, 16) up to two 64-bit words per codeword
    (m <= 128), one less each time the word count doubles past that."""
    return min(k, _TABLE_BITS - max(0, ((m + 63) // 64 - 1).bit_length() - 1))


def codeword_weights(rows: np.ndarray, dt, start: int = 0, stop=None):
    """Yield (h, weights) for the codewords uR, 2^lo messages at a time.

    rows is a k x m array of 0/1 values (m = 0 allowed), row i of R selected
    by bit i of u. weights[j] is the Hamming weight of uR for message
    u = h·2^lo + j, in dtype dt, which must hold m. The low rows are
    expanded once into a table of partial codewords; the high rows are
    walked in Gray-code order (so h is not monotone), step t having
    h = t ^ (t >> 1) and XORing a single row across the whole table before
    the popcount. Only steps start <= t < stop of the 2^(k-lo) are walked
    (stop None: to the end), the first seeded with the XOR of the high rows
    its h selects, so contiguous ranges of steps yield, joined, exactly the
    pairs of the whole walk. lo is _table_bits(k, m), so the one table
    holds at most 2^20 bytes whatever m and k are.
    The table is byte-major, (ceil(m/8), 2^lo) uint8, so byte c of every
    partial codeword is one contiguous row: a step XORs each row with one
    scalar into a reused buffer, popcounts it in place and sums the rows.
    np.bitwise_count is SIMD on uint8, scalar on uint64 (numpy 2.4: 38 us for
    2^19 bytes, 48 for 2^16 words).
    """
    k, lo = rows.shape[0], _table_bits(*rows.shape)
    rows = np.packbits(rows, axis=1, bitorder="little")
    table = subset_xor_table(rows[:lo].T[:, :, None])[:, :, 0]
    g = start ^ (start >> 1)
    buf = np.empty_like(table)
    cur = np.bitwise_xor.reduce(rows[[lo + i for i in range(k - lo) if g >> i & 1]], axis=0)
    for t in range(start, 1 << (k - lo) if stop is None else stop):
        if t > start:
            cur ^= rows[lo + (t & -t).bit_length() - 1]  # t's lowest set bit
        np.bitwise_xor(table, cur[:, None], out=buf)
        yield t ^ (t >> 1), np.bitwise_count(buf, out=buf).sum(axis=0, dtype=dt)


def _part_count(steps: int) -> int:
    """Processes that walk `steps` Gray-code steps: one per CPU in this
    process's affinity set, as long as each gets MIN_PART_STEPS steps, and
    1 where the platform has no os.fork or os.sched_getaffinity.

    The count follows the CPUs the process may run on, not those free to
    run it. On a 2-core VM the split cut the `weights` bench's wall time by
    23% with the second CPU free, and with that CPU busy two parts cost
    2-8% more than one. That trade is taken with no flag and no load probe:
    the affinity set is the user's control (taskset -c 0 keeps the walk in
    one process), and os.getloadavg, the one load figure to hand, averages
    other processes over minutes, not over the walk's fraction of a second.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), steps // MIN_PART_STEPS))


def _forked_sum(work, size: int, steps: int) -> np.ndarray:
    """Sum of the int64 counts that work(start, stop, row, parent) adds
    into row, a zeroed array of `size`, over _part_count(steps) contiguous
    ranges that split [0, steps) as evenly as they can.

    Each range has its own row of one anonymous mapping, which is
    MAP_SHARED, so what a forked child adds to its row is in this process's
    memory with nothing sent back. Range 0 runs in this process, with
    parent None. Each other range runs in a child made by os.fork, with
    parent the pid of this process; work is to raise once os.getppid()
    differs from it. A child leaves through os._exit whatever happens, so
    it never returns into the caller and never flushes the stdio buffers it
    inherited. The finally clause reaps every child, after killing them
    all unless range 0 was walked to its end, so none is left on success,
    on an exception or on KeyboardInterrupt. A failed os.fork, or a child
    that did not exit 0 (one killed from outside too), raises
    InfeasibleError once every child is reaped, so the rows are summed only
    when each was walked to its end. With parts = 1 nothing is forked.
    """
    parts = _part_count(steps)
    edges = [steps * i // parts for i in range(parts + 1)]
    rows = np.frombuffer(mmap.mmap(-1, 8 * parts * size), np.int64).reshape(parts, size)
    parent, children, finished = os.getpid(), [], False
    try:
        for i in range(1, parts):
            try:
                pid = os.fork()
            except OSError as exc:
                raise InfeasibleError(f"weight walk part {i}/{parts} could not fork: {exc}")
            if pid == 0:
                status = 1
                try:
                    work(edges[i], edges[i + 1], rows[i], parent)
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        work(edges[0], edges[1], rows[0], None)
        finished = True
    finally:
        if not finished:
            for pid in children:
                # SIGKILL, 9 on every POSIX system: importing the signal
                # module for its name would cost every CLI start about 1 ms
                os.kill(pid, 9)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for i, (pid, status) in enumerate(zip(children, statuses), start=1):
        if status:
            raise InfeasibleError(f"weight walk part {i}/{parts} (pid {pid}) exited with {status}")
    return rows.sum(axis=0)


def enumerate_weights(code: LinearCode, cap: int = ENUMERATION_CAP) -> WeightDistribution:
    """Exact weight distribution by visiting all 2^k codewords.

    k above cap, or above ENUMERATION_CEILING whatever cap says, raises
    InfeasibleError. Row operations keep the code and column order keeps
    weights, so G is row-reduced once. In that basis the k pivot columns of
    uG are u itself, so wt(uG) = popcount(u) + wt(uP), where P is the
    k x (n-k) block of the other columns, and codeword_weights walks P
    alone. A chunk u = h·2^lo + j adds popcount(j), a vector made once, and
    the scalar popcount(h), in min_scalar_type(n), which may be wider than
    P needs.

    For n <= 255 and k >= 1 a chunk holds an even number of one-byte
    weights, so its uint16 view keys two adjacent codewords, a + 256·b, in
    one bincount; the joint counts J[b, a] fold once into
    A = J.sum(axis=1) + J[:, :n+1].sum(axis=0), the sum of both marginals,
    so byte order does not matter. Otherwise (n > 255, or k = 0: one
    codeword) the weights are counted one by one. On [40,28] (2-core Xeon
    VM, numpy 2.4) a step of 2^16 codewords spends 31 us on XOR, popcount
    and row sum over the 2 parity bytes, against 70 us over all 5 bytes of
    uG, and about 70 us on the bincount, now the larger part.

    The 2^(k-lo) steps are split into contiguous ranges, one per CPU in
    the process's affinity set but at least MIN_PART_STEPS steps each, so
    the split engages from k = 25 while P fits two words (lo = 16; [40,28]
    walks 4096 steps and the [66,26] dual 1024). The first range runs here
    and each other in a forked child (_forked_sum). Each adds its exact
    int64 counts into its own row of one shared mapping, and the rows are
    summed once every child has exited 0, so the distribution is the one a
    single process counts. A fork round trip costs about 2 ms and a step
    about 0.1 ms (MIN_PART_STEPS). On Python 3.12 and later, os.fork
    warns with a DeprecationWarning when the process has other threads,
    such as a BLAS pool numpy started; the children run no BLAS and start
    no thread.
    """
    G = code.generator
    k, n = G.rows, G.cols
    cap = min(cap, ENUMERATION_CEILING)
    if k > cap:
        raise InfeasibleError(f"dimension {k} too large to enumerate (cap {cap}); use the "
                              f"MacWilliams route via the dual or supply an external "
                              f"weight distribution")
    rref, pivots = row_reduce(G.to_dense())  # full rank, as LinearCode checks
    P, lo = np.delete(rref, pivots, axis=1), _table_bits(k, n - k)
    dt, pair = np.min_scalar_type(n), k > 0 and n < 256
    size = 256 * (n + 1) if pair else n + 1
    low = np.bitwise_count(np.arange(1 << lo)).astype(dt)  # popcount(j)

    def count(start, stop, row, parent):
        for h, w in codeword_weights(P, dt, start, stop):
            if parent is not None and os.getppid() != parent:
                raise SystemExit(1)  # the parent is gone: stop this part
            w += low
            w += h.bit_count()
            row += np.bincount(w.view(np.uint16) if pair else w, minlength=size)

    counts = _forked_sum(count, size, 1 << (k - lo))
    if pair:
        J = counts.reshape(n + 1, 256)
        counts = J.sum(axis=1) + J[:, : n + 1].sum(axis=0)
    return WeightDistribution(n, k, tuple(int(c) for c in counts))


def min_distance(w: WeightDistribution) -> int:
    """Smallest nonzero weight with a codeword; needs k >= 1."""
    if w.k < 1:
        raise ValueError("minimum distance is undefined for the trivial code")
    return next(l for l in range(1, w.n + 1) if w.counts[l])  # counts sum to 2^k > 1


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
    only n-k does, and otherwise demands an externally supplied file. A
    cap over ENUMERATION_CEILING counts as the ceiling.
    """
    k, n, cap = code.k, code.n, min(cap, ENUMERATION_CEILING)
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
        try:
            l, c = map(int, line.split())
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
