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
from .gf2 import (BLOCK_LENGTH_CAP, BitMatrix, check_size, parse_header, parse_ints, rank,
                  row_reduce, subset_xor_table)

ENUMERATION_CAP = 28
# Hard ceiling on k for any enumeration, whatever cap a caller passes. One
# core walks about 4.5·10^8 codewords/s (2-core VM, numpy 2.4: 0.16 s for
# a [66,26] code), so 2^40 codewords take about 40 minutes, and each
# further dimension doubles that. A high-rate code of n - k <= 12 is
# counted by doubling a class table instead (enumerate_weights): a [48,36]
# or a [52,40] code in about 15 ms, which the walk would take minutes and
# about 40 minutes for.
ENUMERATION_CEILING = 40
_TABLE_BITS = 16
# Bytes of the doubling's int64 class table, (k+1)·2^m cells, and of the
# copy a row gathers from it, at most: 4 MB holds every m = n - k <= 12 up
# to the ceiling ([52,40]: twice 1.3 MB), and m = 13 up to k = 31
_TABLE_BYTES = 1 << 22
# Walked codewords that a cell of the doubling costs: about 3-4 ns a cell
# against 1.1-1.4 ns a codeword (2-core VM, numpy 2.4), rounded up; the
# k x m table is in CHANGES.md, "High-rate codes' weights are counted by
# doubling"
_CELL_COST = 4
# Fewest steps a part of split_sum gets, counted in Gray-code steps of the
# weight walk, the unit in which pipeline.grid_stats also counts its eps
# (2^(k-12) steps each at dimension k) and pipeline.simulated_stats its
# source (a step per pipeline.SOURCE_BITS_PER_STEP bits), each unit set
# from how long it takes against a step. A part of 256 steps pays for its
# fork with about a tenth of its time at most: a fork round trip took
# 1.8-2.7 ms on a 2-core VM. The step, eps and source timings are in
# CHANGES.md, in "The weight walk's forked parts add their counts",
# "`verify`'s eps grid runs in forked parts" and "`simulate`'s source and
# tally run split over the CPUs".
MIN_PART_STEPS = 256
# Bytes of one part's row from which split_sum runs the work as one part:
# each further part adds its row to the peak. Only simulate's tally gets
# there, whose int64 row holds ceil(k/8)·256 byte counts and, up to k = 24,
# 2^k bucket counts, so from k = 21 to 24 the tally is one part (past 24
# the row holds byte counts only and splits again); the weight walk's row
# and verify's grid row stay far below. At k = 22 and 24 a
# second part added a third or more to simulate's peak (2-core VM; the
# table is in CHANGES.md, "`simulate`'s source and tally run split over
# the CPUs", and "One public call per layer").
SPLIT_ROW_BYTES = 1 << 24


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
        # found once: every bound at every eps sums over these pairs only
        object.__setattr__(self, "_nonzero", tuple((l, c) for l, c in enumerate(self.counts) if c))

    def nonzero(self):
        """(weight, count) pairs with count > 0, ascending weight."""
        return list(self._nonzero)


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
    np.bitwise_count is SIMD on uint8 and scalar on uint64, so the uint8
    table popcounts faster (numpy 2.4; CHANGES.md, "One public call per
    layer").
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


def _part_count(items: int, steps: int) -> int:
    """Parts for work of `items` items worth `steps` weight-walk steps, as
    split_sum states the rule: one per CPU in this process's affinity set,
    each with at least MIN_PART_STEPS steps and at most `items` parts; 1
    where the platform has no os.fork or os.sched_getaffinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), steps // MIN_PART_STEPS, items))


def _shared_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array in one anonymous mapping, which is MAP_SHARED: what
    a child made by os.fork writes into it is in this process's memory,
    with nothing sent back."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * math.prod(shape)), dtype).reshape(shape)


def split_sum(work, items: int, steps: int, shape, dtype, what: str) -> np.ndarray:
    """The sum of the rows that work fills over [0, items), split over the
    CPUs: the one way the weight walk, verify's eps grid and simulate's
    source use more than one process.

    [0, items) is split into contiguous ranges [start, stop), one per part,
    as evenly as they go (some are empty when parts outnumber the items),
    and the iterator work(row, start, stop) is exhausted for each, row
    being the part's own zeroed array of `shape` and `dtype` in one
    (parts, *shape) shared mapping (_shared_zeros). Once every part has
    exited 0, rows 1.. are added into row 0 in place and row 0 is
    returned. A part writes only its own row, so integer counts sum to
    what one process counts; a part that writes floats into slots of its
    own items leaves +0.0 in every other row there, so the sum is exact
    as long as no value is -0.0.

    The part count (_part_count) is one per CPU in the affinity set, as
    long as each part gets MIN_PART_STEPS of the `steps` that the whole
    work is worth, and at most `items`; the work runs as one part when a
    row would hold SPLIT_ROW_BYTES or more, since every further part adds
    its row to the peak. The weight walk passes its Gray-code steps as
    both items and steps, so it splits from k = 25 while P fits two words
    (the [66,26] dual of the benchmark's [66,40] walks 1024 steps); a
    high-rate code's class table is doubled in one process, with no steps
    (enumerate_weights). grid_stats passes its eps, each worth 2^(k-12)
    steps: 25 eps at k = 18 make 1600 steps, so two parts on two CPUs, and
    up to 50 eps at k <= 13 make at most 100, so one. simulated_stats
    passes its source chunks, worth a step per SOURCE_BITS_PER_STEP = 2^14
    source bits: the benchmark's 4·10^6 [16,11] blocks make 3906 steps, so
    two parts on two CPUs, and the default 10^5 blocks at n <= 40 make at
    most 244, so one; its row of 2^k bucket counts reaches SPLIT_ROW_BYTES
    at k = 21, so from there to EMPIRICAL_K_CAP its tally runs as one part.

    The count follows the CPUs the process may run on, not those free to
    run it, with no flag and no load probe: the affinity set is the user's
    control (taskset -c 0 keeps the walk, verify or simulate in one
    process), and os.getloadavg averages other processes over minutes, not
    over the work's fraction of a second. With the second CPU of a 2-core
    VM busy, two parts cost 2-8% more than one (CHANGES.md, "The 2^k weight
    walk is split across the CPUs").

    Range 0 runs in this process. Each other range runs in a child made by
    os.fork, which stops with exit 1 at the first item it gets after
    os.getppid() has changed (this process is gone), so work yields once
    per step or so. A child leaves through os._exit whatever happens, so it
    never returns into the caller and never flushes the stdio buffers it
    inherited. The finally clause reaps every child, after killing them
    all unless range 0 was run to its end, so none is left on success, on
    an exception or on KeyboardInterrupt. A failed os.fork, or a child that
    did not exit 0 (one killed from outside too), raises InfeasibleError
    ("<what> part i/parts ...") once every child is reaped, so no row is
    read unless each part ran to its end. With one part nothing is forked.
    On Python 3.12 and later, os.fork warns with a DeprecationWarning when
    the process has other threads, such as a BLAS pool numpy started; the
    children run no BLAS and start no thread.

    Part i starts on CPU i (mod their count) of the affinity set, through
    a pin that is lifted at once, so no two parts share a CPU at the start
    when there are enough, and the scheduler may move it from there. The
    kernel's own placement often left a forked child on its parent's CPU
    with the other CPU idle; started apart, the parts of verify's eps grid
    ran on two CPUs in 31 of 31 commands on a 2-core VM (CHANGES.md,
    "`verify`'s eps grid runs in forked parts", and "One public call per
    layer").

    The parts are processes, not threads: a weight-walk step, or an eps of
    the exact oracle, is a few numpy calls on buffers of up to 2^k
    entries, which hold the interpreter lock for much of their time, and a
    thread per part would hold its own buffers in the one process. On the
    benchmark's [40,28] walk two threads took no less wall time than one
    part, and more CPU (2-core VM; CHANGES.md, "One way into a
    `BitMatrix`").
    """
    row_bytes = np.dtype(dtype).itemsize * math.prod(shape)
    parts = 1 if row_bytes >= SPLIT_ROW_BYTES else _part_count(items, steps)
    rows = _shared_zeros((parts, *shape), dtype)
    edges = [items * i // parts for i in range(parts + 1)]
    parent, children, finished = os.getpid(), [], False
    cpus = sorted(os.sched_getaffinity(0)) if parts > 1 else []

    def start_on_own_cpu(i):
        try:  # placement only: a refused move changes no result
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass

    try:
        for i in range(1, parts):
            try:
                pid = os.fork()
            except OSError as exc:
                raise InfeasibleError(f"{what} part {i}/{parts} could not fork: {exc}")
            if pid == 0:
                status = 1
                try:
                    start_on_own_cpu(i)
                    for _ in work(rows[i], edges[i], edges[i + 1]):
                        if os.getppid() != parent:
                            break  # the parent is gone: stop this part
                    else:
                        status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        if cpus:
            start_on_own_cpu(0)
        for _ in work(rows[0], edges[0], edges[1]):
            pass
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
            raise InfeasibleError(f"{what} part {i}/{parts} (pid {pid}) exited with {status}")
    for row in rows[1:]:
        rows[0] += row
    return rows[0]


def _doubles(k: int, m: int) -> bool:
    """True where enumerate_weights counts a k x m parity block P by
    doubling its class table (_doubled), False where it walks P.

    The doubling holds (k+1)·2^m int64 cells and gathers a copy of up to
    as many for a row, which must fit _TABLE_BYTES; its k rows touch about
    2^m·k²/2 cells, each worth _CELL_COST codewords of the 2^k walk.
    """
    return (k + 1) << (m + 4) <= _TABLE_BYTES and _CELL_COST * k * k << m < 2 << k


def _doubled(P: np.ndarray) -> np.ndarray:
    """The weight counts of the code [I | P], k x m P, by doubling a
    (parity, popcount) class table over P's rows: wt(uG) = popcount(u) +
    wt(uP).

    table[a, s] counts the messages u over the rows seen so far with
    uP = a and popcount(u) = s, from the empty message alone. Row j, of
    m-bit parity p_j, adds to each class the messages that take it, u with
    bit j set: table'[a, s] = table[a, s] + table[a ^ p_j, s - 1], where
    only s <= j is yet nonzero. A_w sums table[a, s] over wt(a) + s = w.
    """
    k, m = P.shape
    par = P.astype(np.int64) @ (1 << np.arange(m, dtype=np.int64))  # row j's p_j
    table = np.zeros((1 << m, k + 1), np.int64)
    table[0, 0] = 1
    a = np.arange(1 << m)
    for j, p in enumerate(par.tolist()):
        table[:, 1 : j + 2] += table[a ^ p, : j + 1]
    counts = np.zeros(k + m + 1, np.int64)
    np.add.at(counts, np.bitwise_count(a)[:, None] + np.arange(k + 1), table)
    return counts


def enumerate_weights(code: LinearCode, cap: int = ENUMERATION_CAP) -> WeightDistribution:
    """Exact weight distribution by counting all 2^k codewords.

    k above cap, or above ENUMERATION_CEILING whatever cap says, raises
    InfeasibleError. Row operations keep the code and column order keeps
    weights, so G is row-reduced once. In that basis the k pivot columns of
    uG are u itself, so wt(uG) = popcount(u) + wt(uP), where P is the
    k x m block of the other columns, m = n - k, and only P is counted.

    A high-rate code, whose (parity, popcount) class table fits and costs
    less than the walk (_doubles: at m = 12 from k = 22 on, at m = 0 from
    k = 7), is counted by doubling that table over P's rows (_doubled), in
    one process: [40,28] takes about 6 ms, against 0.32 s for the walk in
    one part and 0.17 s in two (2-core VM), with equal counts.

    Any other code is walked codeword by codeword (codeword_weights). A
    chunk u = h·2^lo + j adds popcount(j), a vector made once, and the
    scalar popcount(h), in min_scalar_type(n), which may be wider than P
    needs. For n <= 255 and k >= 1 a chunk holds an even number of one-byte
    weights, so its uint16 view keys two adjacent codewords, a + 256·b, in
    one bincount; the joint counts J[b, a] fold once into
    A = J.sum(axis=1) + J[:, :n+1].sum(axis=0), the sum of both marginals,
    so byte order does not matter. Otherwise (n > 255, or k = 0: one
    codeword) the weights are counted one by one. Walking P, not all of
    uG, leaves the bincount the larger part of a step (on [40,28], about
    70 us of a 2^16-codeword step on a 2-core VM; CHANGES.md, "Weight
    enumeration over the systematic form").

    The walk's steps run split over the CPUs (split_sum), each part
    adding its exact int64 counts into its own row, so the distribution is
    the one a single process counts.
    """
    G = code.generator
    k, n = G.rows, G.cols
    cap = min(cap, ENUMERATION_CEILING)
    if k > cap:
        raise InfeasibleError(f"dimension {k} too large to enumerate (cap {cap}); use the "
                              f"MacWilliams route via the dual or supply an external "
                              f"weight distribution")
    rref, pivots = row_reduce(G.to_dense())  # full rank, as LinearCode checks
    P = np.delete(rref, pivots, axis=1)
    if _doubles(k, n - k):
        return WeightDistribution(n, k, tuple(int(c) for c in _doubled(P)))
    lo = _table_bits(k, n - k)
    dt, pair = np.min_scalar_type(n), k > 0 and n < 256
    size = 256 * (n + 1) if pair else n + 1
    low = np.bitwise_count(np.arange(1 << lo)).astype(dt)  # popcount(j)
    steps = 1 << (k - lo)

    def count(row, start, stop):
        for h, w in codeword_weights(P, dt, start, stop):
            w += low
            w += h.bit_count()
            row += np.bincount(w.view(np.uint16) if pair else w, minlength=size)
            yield

    counts = split_sum(count, steps, steps, (size,), np.int64, "weight walk")
    if pair:
        J = counts.reshape(n + 1, 256)
        counts = J.sum(axis=1) + J[:, : n + 1].sum(axis=0)
    return WeightDistribution(n, k, tuple(int(c) for c in counts))


def min_distance(w: WeightDistribution) -> int:
    """Smallest nonzero weight with a codeword; needs k >= 1."""
    if w.k < 1:
        raise ValueError("minimum distance is undefined for the trivial code")
    return w.nonzero()[1][0]  # after (0, 1), as the counts sum to 2^k > 1


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
        l, c = parse_ints(line, 2, f"line {idx}", "'weight count'")
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
