"""Bit-packed linear algebra over GF(2).

Matrix rows keep their bits in little-endian 64-bit words: bit j lives in
word j // 64 at position j % 64 (LSB first). Padding bits past the logical
width are always zero. Everything here is immutable after
construction and safe to share across threads; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64
_U64 = np.dtype("<u8")


def _word_count(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits) -> np.ndarray:
    """Pack an array of 0/1 values along its last axis into <u8 words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    nwords = _word_count(bits.shape[-1])
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = nwords * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(bits.shape[:-1] + (pad,), np.uint8)], axis=-1
        )
    return np.ascontiguousarray(packed).view(_U64)


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits: a uint8 array of 0/1 values of width nbits."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little")[..., :nbits]


def subset_xor_table(vectors: np.ndarray) -> np.ndarray:
    """table[..., u, :] is the XOR of vectors[..., j, :] over the set bits j
    of u, for every u in 0 .. 2^m - 1; vectors has shape (..., m, words)."""
    *lead, m, width = vectors.shape
    table = np.zeros((*lead, 1 << m, width), vectors.dtype)
    for j in range(m):
        h = 1 << j
        table[..., h : 2 * h, :] = table[..., :h, :] ^ vectors[..., j, None, :]
    return table


class BitMatrix:
    """A rows x cols binary matrix, one bit per entry, rows packed in words.

    rows == 0 is allowed (the generator of the trivial code, e.g. the dual
    of the full space); cols must be positive and rows <= cols.
    """

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if cols < 1:
            raise ValueError("matrix needs at least one column")
        if rows < 0 or rows > cols:
            raise ValueError(f"need 0 <= rows <= cols, got {rows}x{cols}")
        words = np.array(words, dtype=_U64, copy=True)
        if words.shape != (rows, _word_count(cols)):
            raise ValueError(
                f"word array shape {words.shape} does not match "
                f"{rows}x{cols} matrix"
            )
        tail = cols % WORD_BITS
        if tail and rows:
            words[:, -1] &= np.uint64((1 << tail) - 1)
        words.setflags(write=False)
        self.rows = rows
        self.cols = cols
        self.words = words

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise ValueError("dense matrix must be two-dimensional")
        return cls(dense.shape[0], dense.shape[1], pack_bits(dense))

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        """Build from row strings like "0110" or sequences of 0/1."""
        parsed = [
            [int(c) for c in r] if isinstance(r, str) else list(r) for r in rows
        ]
        widths = {len(r) for r in parsed}
        if len(widths) > 1:
            raise ValueError(f"rows have differing lengths: {sorted(widths)}")
        return cls.from_dense(np.array(parsed, dtype=np.uint8))

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls.from_dense(np.eye(k, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _word_count(cols)), _U64))

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return int(self.words[i, j // WORD_BITS] >> np.uint64(j % WORD_BITS)) & 1

    def to_dense(self) -> np.ndarray:
        return unpack_bits(self.words, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SystematicForm:
    """Result of systematize: matrix is [I_k | A]; column j of matrix is
    column column_permutation[j] of the input, so the permutation carries
    the input code onto the code of matrix (weights preserved)."""

    matrix: BitMatrix
    column_permutation: tuple


def row_reduce(dense: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns (rref, pivot_cols); rref is a fresh uint8 array, pivot_cols the
    list of pivot column indices (its length is the rank).
    """
    a = np.array(dense, dtype=np.uint8, copy=True)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        sel = a[:, c].astype(bool)
        sel[r] = False
        a[sel] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(G: BitMatrix) -> int:
    """GF(2) row rank."""
    if G.rows == 0:
        return 0
    return len(row_reduce(G.to_dense())[1])


def systematize(G: BitMatrix) -> SystematicForm:
    """Reduce a full-row-rank G to [I_k | A].

    The column permutation lists the pivot columns of G's reduced row
    echelon form in increasing order, then the remaining columns in
    increasing order. Pivot columns are chosen greedily from the left, so
    the permutation is the identity whenever the leading k columns of G
    are independent.
    """
    if G.rows == 0:
        raise ValueError("cannot systematize an empty matrix")
    rref, pivots = row_reduce(G.to_dense())
    if len(pivots) < G.rows:
        raise ValueError(f"matrix is rank-deficient: rank {len(pivots)} < {G.rows} rows")
    perm = pivots + sorted(set(range(G.cols)) - set(pivots))
    return SystematicForm(BitMatrix.from_dense(rref[:, perm]), tuple(perm))


def parse_matrix(text: str) -> BitMatrix:
    """Parse the text format: header "rows cols", then one 0/1 line per row."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("line 1: missing header 'rows cols'")
    head = lines[0].split()
    try:
        if len(head) != 2:
            raise ValueError
        k, n = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(
            f"line 1: expected header 'rows cols', got {lines[0]!r}"
        ) from None
    if k < 0 or n < 1 or k > n:
        raise ValueError(f"line 1: invalid dimensions {k}x{n}")
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} rows after the header, got {len(lines) - 1}")
    dense = np.zeros((k, n), np.uint8)
    for i, line in enumerate(lines[1:]):
        if len(line) != n:
            raise ValueError(f"row {i + 1}: expected {n} columns, got {len(line)}")
        raw = np.frombuffer(line.encode("ascii", "replace"), np.uint8)
        bad = np.nonzero((raw != ord("0")) & (raw != ord("1")))[0]
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"row {i + 1}: invalid character {line[j]!r} at column {j + 1}")
        dense[i] = raw - ord("0")
    return BitMatrix.from_dense(dense)


def serialize_matrix(G: BitMatrix) -> str:
    """Inverse of parse_matrix; parse(serialize(G)) == G."""
    lines = [f"{G.rows} {G.cols}"]
    dense = G.to_dense()
    for i in range(G.rows):
        lines.append((dense[i] + ord("0")).tobytes().decode("ascii"))
    return "\n".join(lines) + "\n"
