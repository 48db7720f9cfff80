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

from .codes import codeword_weights
from .errors import InfeasibleError
from .gf2 import BitMatrix, pack_bits, rank, subset_xor_table

# Cap on k for anything holding 2^k buckets: the empirical histogram and
# the exact oracle.
EMPIRICAL_K_CAP = 24
# False-alarm rate of the coordinate-bias check at each simulate run.
COORD_BIAS_ALPHA = 1e-3
# Uniform doubles per draw in generate; a multiple of 8, so every draw but
# the last packs to whole bytes.
DRAW_BITS = 1 << 20


class BitStream:
    """An immutable ordered bit sequence: the packed bytes of its stream file
    (MSB-first, padding bits zero) plus the exact bit length."""

    __slots__ = ("data", "nbits")

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if arr.size and arr.max() > 1:
            raise ValueError("stream bits must be 0 or 1")
        self.data = np.packbits(arr)
        self.data.setflags(write=False)
        self.nbits = int(arr.size)

    @property
    def bits(self) -> np.ndarray:
        """A fresh uint8 array holding one 0/1 value per bit."""
        return np.unpackbits(self.data, count=self.nbits)

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitStream)
            and self.nbits == other.nbits
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.nbits, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"BitStream({len(self)} bits)"

    @classmethod
    def from_bytes(cls, data, nbits: Optional[int] = None) -> "BitStream":
        """The stream whose packed MSB-first bytes are a copy of data, with
        the padding bits past nbits cleared."""
        raw = np.frombuffer(data, np.uint8).copy()
        if nbits is None:
            nbits = raw.size * 8
        elif not raw.size * 8 - 8 < nbits <= raw.size * 8:
            raise ValueError(f"bit length {nbits} inconsistent with {raw.size} bytes")
        if nbits % 8:
            raw[-1] &= 0xFF << (8 - nbits % 8) & 0xFF
        stream = cls.__new__(cls)
        raw.setflags(write=False)
        stream.data, stream.nbits = raw, nbits
        return stream

    def to_bytes(self) -> bytes:
        return self.data.tobytes()

    def write(self, path) -> None:
        """Write packed bytes; a sidecar <path>.len records ragged lengths."""
        with open(path, "wb") as fp:
            fp.write(self.data)
        sidecar = str(path) + ".len"
        if len(self) % 8:
            with open(sidecar, "w") as fp:
                fp.write(f"{len(self)}\n")
        elif os.path.exists(sidecar):
            os.remove(sidecar)

    @classmethod
    def read(cls, path) -> "BitStream":
        with open(path, "rb") as fp:
            data = fp.read()
        sidecar = str(path) + ".len"
        nbits = None
        if os.path.exists(sidecar):
            with open(sidecar) as fp:
                nbits = int(fp.read().strip())
        return cls.from_bytes(data, nbits)


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
    def rho0(self) -> float:
        return 0.5 + self.eps / 2.0

    @property
    def rho1(self) -> float:
        return 0.5 - self.eps / 2.0


def generate(spec: BiasedSourceSpec, nbits: int) -> BitStream:
    """Sample nbits IID bits, deterministically for a given seed.

    The seed-to-stream mapping is part of the interface: PCG64 seeded with
    spec.seed, one uniform double per bit, bit = 1 iff the double is below
    P(1). Stable within a release. The doubles are drawn DRAW_BITS at a
    time and packed as they come, which yields the same stream as one draw.
    """
    if nbits < 0:
        raise ValueError(f"nbits must be nonnegative, got {nbits}")
    rng = np.random.default_rng(spec.seed)
    data = b"".join(
        np.packbits(rng.random(min(DRAW_BITS, nbits - start)) < spec.rho1).tobytes()
        for start in range(0, nbits, DRAW_BITS)
    )
    return BitStream.from_bytes(data, nbits)


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
    return BitStream.from_bytes(np.packbits(bits), bits.size)


def von_neumann(stream: BitStream) -> BitStream:
    """Pairwise debiasing: 01 -> 0, 10 -> 1, 00/11 -> nothing."""
    pairs = np.unpackbits(stream.data, count=len(stream) // 2 * 2)
    first, second = pairs[0::2], pairs[1::2]
    return BitStream(first[first != second])


@dataclass(frozen=True)
class ExactStats:
    """Full output distribution statistics (exact oracle or empirical).

    delta is the L1 distance from uniform (twice the TVD); shannon and
    min_entropy are base-2^k entropy rates in [0, 1]; coord_biases[i] is
    |P(Y_i=1) - P(Y_i=0)| for output coordinate i. samples is None for
    exact results and the word count for empirical ones.
    """

    pmf: np.ndarray
    delta: float
    tvd: float
    shannon: float
    min_entropy: float
    coord_biases: np.ndarray
    max_prob: float
    samples: Optional[int] = None


def _stats_from_pmf(
    pmf: np.ndarray, k: int, biases: np.ndarray, samples=None
) -> ExactStats:
    pmf = np.asarray(pmf, np.float64)
    uniform = 2.0**-k
    delta = float(np.abs(pmf - uniform).sum())
    nz = pmf[pmf > 0]
    shannon = float(-(nz * np.log2(nz)).sum() / k) + 0.0  # +0.0 normalizes -0.0
    max_prob = float(pmf.max())
    min_entropy = float(-math.log2(max_prob) / k) + 0.0
    pmf.setflags(write=False)
    biases.setflags(write=False)
    return ExactStats(
        pmf=pmf,
        delta=delta,
        tvd=delta / 2.0,
        shannon=shannon,
        min_entropy=min_entropy,
        coord_biases=biases,
        max_prob=max_prob,
        samples=samples,
    )


def output_weight_profile(G: BitMatrix, cap: int = EMPIRICAL_K_CAP) -> np.ndarray:
    """w[u] = wt(uG) for every message u in 0 .. 2^k - 1 (bit i selects row i).

    The profile separates the geometry of G from the bias, so one pass over
    the 2^k codewords serves every eps. Needs k <= cap and full rank; both
    are checked before any work.
    """
    k = G.rows
    if k > cap:
        raise InfeasibleError(
            f"exact oracle holds 2^k buckets; k={k} is over the cap {cap} - "
            f"use Monte-Carlo simulation instead"
        )
    if rank(G) != k:
        raise ValueError(
            f"exact oracle requires a full-rank matrix (rank {rank(G)} < {k} rows)"
        )
    w = np.empty(1 << k, np.int32)
    for h, chunk in codeword_weights(G):
        w[h * chunk.size : (h + 1) * chunk.size] = chunk
    return w


def _fwht(a: np.ndarray) -> None:
    """In-place unnormalized Walsh-Hadamard transform of a length-2^k array."""
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        x, y = v[:, 0], v[:, 1]
        s = x + y
        np.subtract(x, y, out=y)
        x[...] = s
        h *= 2


def stats_from_profile(profile: np.ndarray, eps: float) -> ExactStats:
    """Exact output statistics from the codeword-weight profile.

    Under the biased IID source the output character at u is exactly
    E[(-1)^(u·y)] = eps^wt(uG) (the XOR lemma), so the pmf is
    2^-k · FWHT(chi) with chi[u] = eps^w[u], and coordinate i's bias is
    chi[e_i] = eps^wt(row i), read off before the transform.

    Rounding, with r = 2^-53: the power lookup rounds each chi entry once,
    and each butterfly level rounds each partial sum once, by at most r
    times the sum of the chi entries beneath it. A cell is a ±1 combination
    of one level's partial sums, whose supports partition all 2^k entries,
    so every pmf cell is within (k+1)·r·2^-k·S of exact, where
    S = sum(chi) = sum_l A_l eps^l is one plus the weight-distribution
    bound. Hence delta is within (k+1)·r·S plus the rounding of its own sum
    (about k·r·delta), and max_prob >= 2^-k within a relative (k+1)·r·S.
    Where the weight bound is tight (S near 1) that is under 3e-15 for
    k <= 24. Cells are clipped at 0, which only moves them toward exact.
    """
    k = profile.size.bit_length() - 1
    chi = (eps ** np.arange(int(profile.max()) + 1))[profile]
    biases = np.abs(chi[1 << np.arange(k)])
    _fwht(chi)
    chi *= 2.0**-k
    np.maximum(chi, 0.0, out=chi)
    return _stats_from_pmf(chi, k, biases)


def exact_output_pmf(
    G: BitMatrix, eps: float, cap: int = EMPIRICAL_K_CAP
) -> ExactStats:
    """Exact output distribution of y = G·x under the biased IID source.

    Costs O(k·2^k) whatever n is; feasible for k <= cap only.
    """
    return stats_from_profile(output_weight_profile(G, cap), eps)


def check_histogram(k: int) -> None:
    """Raise InfeasibleError when 2^k histogram bins are over the cap."""
    if k > EMPIRICAL_K_CAP:
        raise InfeasibleError(
            f"k={k} needs 2^{k} histogram bins, over the cap {EMPIRICAL_K_CAP}; "
            f"use per-coordinate marginal biases instead"
        )


def empirical_stats(stream: BitStream, k: int) -> ExactStats:
    """Histogram estimate of the output distribution over k-bit words.

    The stream is consumed k bits per word in emission order (bit i of the
    word is coordinate i, matching the exact oracle's buckets). The sample
    count is reported so callers can form confidence radii.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    check_histogram(k)
    if len(stream) == 0 or len(stream) % k:
        raise ValueError(f"stream length {len(stream)} is not a positive multiple of k={k}")
    m = len(stream) // k
    words = _words(BitMatrix.identity(k), stream)[:, 0].view(np.int64)
    counts = np.bincount(words, minlength=1 << k)
    # bucket u counts toward coordinate i's ones when bit i of u is set
    ones = np.array([counts.reshape(-1, 2, 1 << i)[:, 1].sum() for i in range(k)])
    return _stats_from_pmf(counts / m, k, _biases(ones, m), samples=m)


def marginal_biases(stream: BitStream, k: int) -> np.ndarray:
    """Per-coordinate empirical biases |2·ones_i - m| / m without binning."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(stream) == 0 or len(stream) % k:
        raise ValueError(f"stream length {len(stream)} is not a positive multiple of k={k}")
    blocks = stream.bits.reshape(-1, k)
    return _biases(blocks.sum(axis=0, dtype=np.int64), len(blocks))


def _biases(ones: np.ndarray, m: int) -> np.ndarray:
    """|2·ones_i - m| / m from integer one-counts: exact but for one rounding."""
    return np.abs(2 * ones - m) / m


def multinomial_noise_floor(k: int, samples: int) -> float:
    """sqrt(2^k / N): the scale of empirical-TVD noise near uniform."""
    return math.sqrt((1 << k) / samples)


def coord_bias_tolerance(k: int, samples: int) -> float:
    """sqrt(2·ln(2k/alpha)/N), alpha = COORD_BIAS_ALPHA: a coordinate's bias
    moves 2t when its ones-frequency over N samples moves t, which Hoeffding
    bounds by 2·exp(-2N·t^2), so by a union bound over the k coordinates the
    largest deviation passes this tolerance with probability at most alpha."""
    return math.sqrt(2.0 * math.log(2 * k / COORD_BIAS_ALPHA) / samples)


def stats_lines(stats: ExactStats) -> list:
    """Stats as key=value lines, reals at 12 significant digits."""
    lines = [
        f"delta={stats.delta:.12g}",
        f"tvd={stats.tvd:.12g}",
        f"shannon={stats.shannon:.12g}",
        f"min_entropy={stats.min_entropy:.12g}",
        f"max_prob={stats.max_prob:.12g}",
        "coord_biases=" + ",".join(f"{b:.12g}" for b in stats.coord_biases),
    ]
    if stats.samples is not None:
        lines.append(f"samples={stats.samples}")
    return lines
