"""Runtime side: biased-source simulation, streaming linear extraction, the
von Neumann baseline, the exact output-distribution oracle, and empirical
estimation.

Output words index their bits LSB-first by output coordinate: bit i of a
probability bucket is row i of the generator matrix. Stream files are raw
bytes, MSB-first within each byte, with a ".len" sidecar when the bit count
is not a multiple of 8.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import codeword_weights, split_sum
from .errors import InfeasibleError
from .gf2 import BitMatrix, pack_bits, parse_ints, subset_xor_table

# Cap on k for anything holding 2^k buckets: the empirical histogram and
# the exact oracle.
EMPIRICAL_K_CAP = 24
# Cap on the source bits blocks·n that simulate draws: at about 10^8
# source bits/s (the README's simulate rate) 2^40 bits take about 3 hours.
SOURCE_BITS_CAP = 1 << 40
# Source bits per draw, about: the source is drawn a multiple of 8 blocks
# at a time, so every draw but the last holds whole bytes and whole blocks.
DRAW_BITS = 1 << 20
# Source bits per piece of a draw, held as 8-byte doubles: the largest
# piece that keeps simulate's peak, since larger pieces raised it, and
# smaller ones made glibc refault the tally's arrays each chunk (simulate
# on [16,11] at 4·10^6 blocks peaked at 37.1 MB on a 2-core VM; CHANGES.md,
# the entry that brought in 2^17-bit pieces).
PIECE_BITS = 1 << 17
# Source bits that simulate draws, extracts and tallies in about the time
# of one weight-walk step (codes.MIN_PART_STEPS has the measurements).
SOURCE_BITS_PER_STEP = 1 << 14


class BitStream:
    """An immutable ordered bit sequence: data, the packed bytes of its
    stream file (MSB-first, padding bits zero), plus nbits, the exact bit
    length. from_bytes and read build one."""

    __slots__ = ("data", "nbits")

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        return f"BitStream({len(self)} bits)"

    @classmethod
    def from_bytes(cls, data, nbits: Optional[int] = None) -> "BitStream":
        """The stream whose packed MSB-first bytes are a copy of data, with
        the padding bits past nbits cleared."""
        return cls._own(np.frombuffer(data, np.uint8).copy(), nbits)

    @classmethod
    def _own(cls, raw: np.ndarray, nbits: Optional[int] = None) -> "BitStream":
        """from_bytes without the copy: the stream takes raw, which nothing else writes."""
        if nbits is None:
            nbits = raw.size * 8
        elif not max(0, raw.size * 8 - 7) <= nbits <= raw.size * 8:
            raise ValueError(f"bit length {nbits} inconsistent with {raw.size} bytes")
        if nbits % 8:
            raw[-1] &= 0xFF << (8 - nbits % 8) & 0xFF
        stream = cls.__new__(cls)
        raw.setflags(write=False)
        stream.data, stream.nbits = raw, nbits
        return stream

    def write(self, path) -> None:
        """Write packed bytes; a sidecar <path>.len records ragged lengths."""
        with open(path, "wb") as fp:
            _clear_length(path)
            fp.write(self.data)
        _write_length(path, len(self))

    @classmethod
    def read(cls, path) -> "BitStream":
        with open(path, "rb") as fp:
            return cls.from_bytes(fp.read(), _read_length(path))


def _read_length(path) -> Optional[int]:
    """The bit length in the stream file's <path>.len sidecar, checked
    against the file's size, or None when there is no sidecar."""
    sidecar = str(path) + ".len"
    if not os.path.exists(sidecar):
        return None
    with open(sidecar, "rb") as fp:
        nbits, = parse_ints(fp.read().decode(errors="replace"), 1, sidecar, "'bit length'")
    size = os.path.getsize(path)
    if not max(0, 8 * size - 7) <= nbits <= 8 * size:
        raise ValueError(f"{sidecar}: bit length {nbits} does not fit {size} bytes")
    return nbits


def _clear_length(path) -> None:
    """Remove the stream file's <path>.len sidecar, if it has one. Writers
    call it as soon as the file is opened, so a write that stops partway
    leaves no old length that contradicts the bytes written so far; a
    device or a pipe, such as /dev/null, has no sidecar to remove."""
    sidecar = str(path) + ".len"
    if os.path.isfile(path) and os.path.exists(sidecar):
        os.remove(sidecar)


def _write_length(path, nbits: int) -> None:
    """Record a ragged bit length in the sidecar of the stream file path,
    which _clear_length has cleared."""
    if nbits % 8 and os.path.isfile(path):
        with open(str(path) + ".len", "w") as fp:
            fp.write(f"{nbits}\n")


@dataclass(frozen=True)
class BiasedSourceSpec:
    """IID binary source: P(0) = 1/2 + eps/2, P(1) = 1/2 - eps/2.

    Zeros are fixed as the likelier symbol; every downstream bound is
    symmetric under bit complement so only |P(1) - P(0)| matters.
    """

    eps: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")

    @property
    def rho1(self) -> float:
        return 0.5 - self.eps / 2.0


def generate(spec: BiasedSourceSpec, nbits: int) -> BitStream:
    """Sample nbits IID bits, deterministically for a given seed.

    The seed-to-stream mapping is part of the interface, stable within a
    release: bit i is 1 iff the i-th double of default_rng(spec.seed).random()
    is below rho1 = P(1).
    """
    if nbits < 0:
        raise ValueError(f"nbits must be nonnegative, got {nbits}")
    return _draw(np.random.default_rng(spec.seed), spec, nbits)


def _draw(rng: np.random.Generator, spec: BiasedSourceSpec, nbits: int) -> BitStream:
    """The next nbits source bits from rng, as generate sets them, packed
    PIECE_BITS at a time straight into the stream's own byte array."""
    data = np.empty((nbits + 7) // 8, np.uint8)
    for start in range(0, nbits, PIECE_BITS):
        bits = rng.random(min(PIECE_BITS, nbits - start)) < spec.rho1
        data[start // 8 : (start + bits.size + 7) // 8] = np.packbits(bits)
    return BitStream._own(data, nbits)


def _chunk_blocks(n: int) -> int:
    """Blocks of n bits per chunk of a stream: about DRAW_BITS bits, but at
    least 256·p blocks, p = 8/gcd(n, 8); a multiple of 8 either way, so each
    chunk but the last holds whole bytes. For each chunk _words builds p
    tables of ceil(n/8)·256 entries and gathers ceil(n/8) entries a block,
    so from 256·p blocks on the gathers outnumber the table entries. Every
    n <= 512 keeps its DRAW_BITS chunk; the largest chunk is 2,048 blocks
    of at most 65,535 bits, about 16 MB. With a floor of 8 blocks instead,
    the tables cost far more than the extraction on wide matrices: over ten
    times the time on a seeded [65535,64] matrix (2-core VM; CHANGES.md,
    "One way into a `BitMatrix`").
    """
    return max(256 * (8 // math.gcd(n, 8)), DRAW_BITS // (8 * n) * 8)


def check_source(blocks: int, n: int) -> None:
    """Raise InfeasibleError when a source of blocks·n bits is over the cap."""
    if blocks * n > SOURCE_BITS_CAP:
        raise InfeasibleError(f"blocks·n = {blocks * n} source bits, over the cap {SOURCE_BITS_CAP}")


def _source_chunks(spec: BiasedSourceSpec, blocks: int, n: int = 1, start: int = 0,
                   stop: Optional[int] = None):
    """generate(spec, blocks·n) as consecutive streams of _chunk_blocks(n)
    whole n-bit blocks, and the rest; only chunks start <= c < stop of them
    (stop None: to the end). A range draws on from one PCG64(spec.seed),
    advanced past the start·_chunk_blocks(n)·n 64-bit outputs, one a double
    and so one a bit, that the chunks before it take (PCG64.advance jumps in
    O(log) steps), so contiguous ranges join to the stream of one draw, and
    memory holds one chunk's bytes and one piece of doubles at a time."""
    step = _chunk_blocks(n)
    rng = np.random.Generator(np.random.PCG64(spec.seed).advance(start * step * n))
    for c in range(start, -(-blocks // step) if stop is None else stop):
        yield _draw(rng, spec, min(step, blocks - c * step) * n)


def _words(G: BitMatrix, stream: BitStream) -> np.ndarray:
    """G·x for every whole n-bit block x of the stream, as a (blocks, W)
    array of little-endian uint64 words, W = ceil(k/64): bit i is row i."""
    n = G.cols
    nblocks = len(stream) // n
    p = 8 // math.gcd(n, 8)  # blocks p apart start at the same bit of a byte
    cols = pack_bits(G.to_dense().T)  # column j of G as a k-bit word
    y = np.empty((nblocks, cols.shape[1]), cols.dtype)
    for r in range(min(p, nblocks)):
        s, nb = r * n % 8, (r * n % 8 + n + 7) // 8
        # MSB-first position t of byte c (value bit 7 - t) is column 8c + t - s
        window = np.pad(cols, ((s, 8 * nb - s - n), (0, 0)))
        table = subset_xor_table(window.reshape(nb, 8, -1)[:, ::-1])
        acc = y[r::p]  # the class's blocks start p·n/8 bytes apart
        x = np.lib.stride_tricks.as_strided(
            stream.data[r * n // 8 :], (len(acc), nb), (p * n // 8, 1), writeable=False)
        np.take(table[0], x[:, 0], axis=0, out=acc)
        for c in range(1, nb):
            acc ^= np.take(table[c], x[:, c], axis=0)
    return y


def linear_extract(G: BitMatrix, stream: BitStream) -> BitStream:
    """Apply y = G·x per n-bit block; emits k bits per block in row order.

    A trailing partial block is discarded (padding would inject
    deterministic bits). The product is a byte-table gather ("Four
    Russians"): blocks whose index has the same residue r mod
    p = 8/gcd(n, 8) all start s = r·n mod 8 bits into a byte. Per residue a
    ceil((s+n)/8) x 256 table holds the XOR of G's columns that each value
    of each byte selects (bits outside the block select none), and a block's
    output is the XOR of one entry per byte, read through a strided view.
    The input is never unpacked; byte-aligned n is just p = 1. Only the
    ceil(k/8) low bytes of each output word are unpacked, to emit its bits.
    """
    words = _words(G, stream).view(np.uint8)
    bits = np.unpackbits(words, axis=1, count=G.rows, bitorder="little")
    return BitStream._own(np.packbits(bits), bits.size)


def von_neumann(stream: BitStream) -> BitStream:
    """Pairwise debiasing: 01 -> 0, 10 -> 1, 00/11 -> nothing.

    The pairs are gathered byte by byte from _PAIR_CODES with np.take,
    which beat indexing by the uint8 bytes (by 2.7 times on a 128 KB chunk,
    2-core VM; CHANGES.md, "Each data loop holds its own state"), so the
    unequal pairs are the codes below 2 and each code is its output bit;
    np.compress keeps them without a boolean-mask index. A call holds
    temporaries of O(input) size, a code byte and a mask byte per pair and
    take's 8-byte index per input byte; extract_file, which the CLI runs,
    calls it one chunk at a time.
    """
    codes = np.take(_PAIR_CODES, stream.data).view(np.uint8)[: len(stream) // 2]
    firsts = np.compress(codes < 2, codes)
    return BitStream._own(np.packbits(firsts), firsts.size)


# the four bit pairs of each byte value, MSB-first, as 2·first + second - 1
# in uint8 arithmetic: 01 -> 0, 10 -> 1, 11 -> 2, 00 -> 255
_PAIR_CODES = ((np.arange(256, dtype=np.uint8)[:, None] >> np.arange(6, -1, -2, dtype=np.uint8)) % 4
               - np.uint8(1)).view(np.uint32).ravel()


def _same_file(a, b) -> bool:
    """a and b name one file: the same existing file, or one resolved path."""
    return (os.path.samefile(a, b) if os.path.exists(a) and os.path.exists(b)
            else os.path.realpath(a) == os.path.realpath(b))


def extract_file(extract, n: int, src, dst):
    """Extract the stream file src into the stream file dst _chunk_blocks(n)
    blocks at a time, so memory holds one chunk whatever the file size;
    returns (bits in, bits out). extract maps whole blocks to output block
    by block, so the chunks' outputs join to the whole stream's, packed:
    the s = nout mod 8 output bits that do not fill a byte wait in one carry
    byte, each chunk's packed bytes are appended s bits on (each byte split
    over two, the carry OR-ed into the first), the whole bytes are written
    and the last, partial one is the new carry, written at the end. No
    stream is unpacked. Before anything is opened, dst must not be src, nor
    src's .len sidecar or the file whose sidecar src is; then src's sidecar
    is checked before dst is opened, and dst's old sidecar is removed as
    soon as it is."""
    if _same_file(dst, src):
        raise ValueError(f"{dst} is the input file, which writing would truncate")
    if _same_file(dst, str(src) + ".len") or _same_file(str(dst) + ".len", src):
        raise ValueError(f"one of {dst} and {src} is the other's .len sidecar, "
                         f"which writing would change")
    nbits = _read_length(src)
    size, limit = _chunk_blocks(n) * n // 8, math.inf if nbits is None else nbits
    nin, nout, carry = 0, 0, np.zeros(1, np.uint8)
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        _clear_length(dst)
        while data := fin.read(size):
            count = min(8 * len(data), limit - nin)
            out = extract(BitStream.from_bytes(data, count))
            s, whole = nout % 8, (nout % 8 + len(out)) // 8
            nin, nout = nin + count, nout + len(out)
            joined = np.append(out.data >> s, np.uint8(0))
            # shifted as uint16, so s = 0 shifts by 8 to 0; |= keeps the low byte
            joined[1:] |= out.data << np.uint16(8 - s)
            joined[:1] |= carry
            fout.write(joined[:whole])
            carry = joined[whole : whole + 1]  # its bits past nout are padding, zero
        fout.write(carry[: nout % 8])  # the last byte, when nout is ragged
    _write_length(dst, nout)
    return nin, nout


@dataclass(frozen=True)
class ExactStats:
    """Output distribution statistics (exact oracle or empirical).

    coord_biases[i] is |P(Y_i=1) - P(Y_i=0)| for output coordinate i.
    samples is None for exact results and the word count for empirical ones.
    The rest come from the 2^k-bucket pmf, and are None past EMPIRICAL_K_CAP
    in simulate's tally: delta is the L1 distance from uniform (twice the
    TVD); shannon and min_entropy are base-2^k entropy rates in [0, 1].
    Construction makes coord_biases and pmf read-only.
    """

    coord_biases: np.ndarray
    samples: Optional[int] = None
    pmf: Optional[np.ndarray] = None
    delta: Optional[float] = None
    tvd: Optional[float] = None
    shannon: Optional[float] = None
    min_entropy: Optional[float] = None
    max_prob: Optional[float] = None

    def __post_init__(self):
        self.coord_biases.setflags(write=False)
        if self.pmf is not None:
            self.pmf.setflags(write=False)


def _stats_from_pmf(pmf: np.ndarray, k: int, biases: np.ndarray, spare: np.ndarray,
                    samples=None) -> ExactStats:
    """ExactStats of a float64 pmf over 2^k buckets. spare is the caller's
    2^k float64 buffer, overwritten as the one temporary: pmf - 2^-k, then
    p·log2(p)."""
    t = np.subtract(pmf, 2.0**-k, out=spare)
    delta = float(np.abs(t, out=t).sum())
    # 0·log2(0) = 0: a zero cell's log2 is taken at the smallest subnormal,
    # which is finite, and then multiplied by 0; every other cell is unchanged
    np.maximum(pmf, np.finfo(np.float64).smallest_subnormal, out=t)
    np.log2(t, out=t)
    t *= pmf
    shannon = float(-t.sum() / k) + 0.0  # +0.0 normalizes -0.0
    max_prob = float(pmf.max())
    min_entropy = float(-math.log2(max_prob) / k) + 0.0
    return ExactStats(pmf=pmf, delta=delta, tvd=delta / 2.0, shannon=shannon,
                      min_entropy=min_entropy, coord_biases=biases, max_prob=max_prob,
                      samples=samples)


def check_buckets(k: int) -> None:
    """Raise InfeasibleError when 2^k buckets, the exact oracle's or the
    histogram's, are over the cap."""
    if k > EMPIRICAL_K_CAP:
        raise InfeasibleError(f"k={k} needs 2^{k} buckets, over the cap {EMPIRICAL_K_CAP}")


def output_weight_profile(G: BitMatrix) -> np.ndarray:
    """w[u] = wt(uG) for every message u in 0 .. 2^k - 1 (bit i selects row i).

    The profile separates the geometry of G from the bias, so one pass over
    the 2^k codewords serves every eps. It is held in the smallest unsigned
    dtype that holds n (uint8 up to n = 255). Needs k <= EMPIRICAL_K_CAP,
    which is checked before any work; G may have any rank.
    """
    k = G.rows
    check_buckets(k)
    dt = np.min_scalar_type(G.cols)
    w = np.empty(1 << k, dt)
    for h, chunk in codeword_weights(G.to_dense(), dt):
        w[h * chunk.size : (h + 1) * chunk.size] = chunk
    return w


def _fwht(src: np.ndarray, dst: np.ndarray) -> tuple:
    """Unnormalized Walsh-Hadamard transform of a length-2^k float64 array.

    The caller owns both buffers: src holds the input and dst, of the same
    shape and dtype, is scratch; the transform alternates between them and
    returns (result, spare), which are src and dst in some order, both
    overwritten.

    A butterfly level on index bit p pairs entries 2^p apart, so numpy runs
    it as inner loops of 2^p elements; below about 2^12 the per-loop
    overhead, not memory traffic, sets its cost (at k = 18 on a 2-core VM,
    a level at 2^p = 2 took 23 times one at 2^p >= 2^12; CHANGES.md,
    "Rotated Walsh–Hadamard transform"). So no level runs on a low bit. The
    transform is three passes over c = k//3, (k+1)//3, (k+2)//3 bits: each
    pass runs the levels of the top c index bits in place, then one
    transposing copy into the other buffer rotates those bits to the
    bottom. The three rotations sum to k bits and
    restore the index order.
    """
    k = src.size.bit_length() - 1
    for c in (k // 3, (k + 1) // 3, (k + 2) // 3):
        for p in range(k - c, k):
            v = src.reshape(-1, 2, 1 << p)
            x, y = v[:, 0], v[:, 1]
            x += y
            y *= -2
            y += x  # (x + y) - 2y = x - y
        top = src.reshape(1 << c, 1 << (k - c))  # row = the top c bits
        np.copyto(dst.reshape(1 << (k - c), 1 << c), top.T)
        src, dst = dst, src
    return src, dst


# Profile entries per np.take in stats_from_profile: take copies its index
# array to intp, 8 bytes an entry, which over a whole 2^24-entry profile is 134 MB
GATHER_SLICE = 1 << 16


def stats_from_profile(profile: np.ndarray, eps: float, buf=None) -> ExactStats:
    """Exact output statistics from the codeword-weight profile.

    Under the biased IID source the output character at u is exactly
    E[(-1)^(u·y)] = eps^wt(uG) (the XOR lemma), so the pmf is
    2^-k · FWHT(chi) with chi[u] = eps^w[u], and coordinate i's bias is
    chi[e_i] = eps^wt(row i), read off before the transform.

    Rounding, with r = 2^-53: the power lookup rounds each chi entry once.
    At each butterfly level the sum x + y rounds once, by at most r·T with T
    the sum of the chi entries beneath the pair; the difference is formed in
    place as (x + y) - 2y, which carries that rounding and adds its own, so
    at most 2r·T. A rotation copy rounds nothing, and later levels pass an
    error on with coefficient ±1. After any set of levels each entry is a
    ±1 sum over a subcube of those bits, and one level's subcubes partition
    all 2^k entries, so the level on bit b adds at most r·S to cell f, or
    2r·S where bit b of f is 1 (f descends from the difference there), with
    S = sum(chi) = sum_l A_l eps^l one plus the weight-distribution bound.
    Hence cell f is within (k+1+popcount(f))·r·2^-k·S <= (2k+1)·r·2^-k·S
    of exact; delta, summed over cells of mean popcount k/2, is within
    (3k/2+1)·r·S plus the rounding of its own sum (about k·r·delta); and
    max_prob >= 2^-k is within a relative (2k+1)·r·S. Where the weight
    bound is tight (S near 1) that is under 6e-15 for k <= 24. Cells are
    clipped at 0, which only moves them toward exact.

    The work runs in buf, two 2^k float64 arrays: chi is gathered into
    buf[0] and the transform leaves the pmf in buf[1]. buf None makes two
    fresh arrays, so the pmf returned is the caller's own and keeps no
    spare alive; grid_stats passes each part's held pair. The gather
    writes in place, as np.take does under mode="clip" (every index is in
    range), where mode="raise" would fill a temporary of its own first.
    """
    k = profile.size.bit_length() - 1
    buf = (np.empty(profile.size), np.empty(profile.size)) if buf is None else buf
    powers, chi = eps ** np.arange(int(profile.max()) + 1), buf[0]
    for i in range(0, profile.size, GATHER_SLICE):
        np.take(powers, profile[i : i + GATHER_SLICE], out=chi[i : i + GATHER_SLICE], mode="clip")
    biases = np.abs(chi[1 << np.arange(k)])
    pmf, spare = _fwht(chi, buf[1])
    pmf *= 2.0**-k
    np.maximum(pmf, 0.0, out=pmf)
    return _stats_from_pmf(pmf, k, biases, spare)


# The float fields of ExactStats, in the order simulate prints them and
# grid_stats lays out each eps's slots
_REAL_FIELDS = ("delta", "tvd", "shannon", "min_entropy", "max_prob")


def grid_stats(profile: np.ndarray, grid) -> list:
    """stats_from_profile(profile, eps) for each eps of grid, in order,
    each with pmf None and every other field bit for bit the same.

    The eps run split over the CPUs (codes.split_sum), an eps at dimension
    k counted as 2^(k-12) weight-walk steps (MIN_PART_STEPS has the
    measurements). A part owns one (2, 2^k) float64 buffer pair, made
    before its first eps, and passes it to stats_from_profile for each of
    its eps, so no eps maps 2^k memory of its own; each eps's pmf is a view
    of the pair, which the next eps overwrites (the views are made afresh
    at each eps, so freezing one leaves the pair writable). A part
    writes an eps's floats and its k coordinate biases into that eps's row
    of its own (len(grid), 5 + k) float64 array. No field is -0.0 (the
    entropies add +0.0, the rest are absolute values or probabilities), so
    the sum over the parts is exact. A thread per part would hold a second
    pair in one process; a forked part keeps each process's peak that of
    one eps.
    """
    k = profile.size.bit_length() - 1

    def run(rows, start, stop):
        buf = np.empty((2, 1 << k))
        for j in range(start, stop):
            stats = stats_from_profile(profile, grid[j], buf)
            rows[j, : len(_REAL_FIELDS)] = [getattr(stats, f) for f in _REAL_FIELDS]
            rows[j, len(_REAL_FIELDS) :] = stats.coord_biases
            yield

    rows = split_sum(run, len(grid), len(grid) << max(0, k - 12),
                     (len(grid), len(_REAL_FIELDS) + k), np.float64, "eps grid")
    return [ExactStats(coord_biases=row[len(_REAL_FIELDS) :],
                       **{f: float(x) for f, x in zip(_REAL_FIELDS, row)}) for row in rows]


def empirical_stats(stream: BitStream, k: int) -> ExactStats:
    """Histogram estimate of the output distribution over k-bit words.

    The stream is consumed k bits per word in emission order (bit i of the
    word is coordinate i, matching the exact oracle's buckets). The sample
    count is reported so callers can form confidence radii.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(stream) == 0 or len(stream) % k:
        raise ValueError(f"stream length {len(stream)} is not a positive multiple of k={k}")
    check_buckets(k)  # before the k x k identity
    row = np.zeros(_tally_width(k), np.int64)
    _tally(BitMatrix.from_dense(np.eye(k, dtype=np.uint8)), stream, row)
    return _tally_stats(row, k, len(stream) // k)


def simulated_stats(G: BitMatrix, spec: BiasedSourceSpec, blocks: int) -> ExactStats:
    """empirical_stats(linear_extract(G, generate(spec, blocks·n)), k), bit
    for bit, in one pass over the source: memory holds one draw and the
    2^k buckets a part, whatever blocks is. Past EMPIRICAL_K_CAP it holds
    no buckets and measures only coord_biases and samples, at any k. Past
    SOURCE_BITS_CAP it raises InfeasibleError before any draw or fork.

    The source chunks run split over the CPUs (codes.split_sum), a step
    per SOURCE_BITS_PER_STEP source bits. Each part draws its own chunks
    (_source_chunks) and adds their counts into its own row; the counts
    are integers, so the stats are those of one process, bit for bit.
    """
    k, n = G.rows, G.cols
    check_source(blocks, n)

    def run(row, start, stop):
        for stream in _source_chunks(spec, blocks, n, start, stop):
            _tally(G, stream, row)
            yield

    row = split_sum(run, -(-blocks // _chunk_blocks(n)), blocks * n // SOURCE_BITS_PER_STEP,
                    (_tally_width(k),), np.int64, "source")
    return _tally_stats(row, k, blocks)


def _tally_width(k: int) -> int:
    """Counts in a tally row of k-bit words: ceil(k/8)·256 byte-value
    counts, then 2^k bucket counts up to k = EMPIRICAL_K_CAP."""
    return (k + 7) // 8 * 256 + ((1 << k) if k <= EMPIRICAL_K_CAP else 0)


def _tally(G: BitMatrix, stream: BitStream, row: np.ndarray) -> None:
    """Add the words G·x over the whole blocks of stream into the int64
    tally row of _tally_width(k) counts: how often each value of each word
    byte occurs (byte c holds coordinates 8c .. 8c + 7), then, up to
    k = EMPIRICAL_K_CAP, how often each word does."""
    k = G.rows
    words = _words(G, stream)
    byte_counts = row[: (k + 7) // 8 * 256].reshape(-1, 256)
    for c, column in enumerate(words.view(np.uint8).T[: len(byte_counts)]):
        byte_counts[c] += np.bincount(column, minlength=256)
    if k <= EMPIRICAL_K_CAP:
        np.add.at(row[byte_counts.size :], words[:, 0].view(np.int64), 1)


def _tally_stats(row: np.ndarray, k: int, m: int) -> ExactStats:
    """The stats of m words tallied into row (_tally): the coordinate
    biases |2·ones_i - m| / m, exact but for one rounding, and up to
    k = EMPIRICAL_K_CAP the 2^k-bucket histogram's, whose counts the pmf's
    temporary then overwrites."""
    byte_counts = row[: (k + 7) // 8 * 256].reshape(-1, 256)
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    biases = np.abs(2 * (byte_counts @ byte_bits).reshape(-1)[:k] - m) / m
    if k > EMPIRICAL_K_CAP:
        return ExactStats(coord_biases=biases, samples=m)
    counts = row[byte_counts.size :]
    return _stats_from_pmf(counts / m, k, biases, counts.view(np.float64), samples=m)
