"""Linear algebra over GF(2).

A matrix holds its entries as a read-only uint8 array of 0/1 values, one
byte per entry. Everything here is immutable after construction and safe
to share across threads; all operations are pure.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InfeasibleError

# Caps on input sizes, checked before anything of that size is allocated:
# the block length n of a code and the k·n entries of a generator matrix.
BLOCK_LENGTH_CAP = 1 << 16
MATRIX_BITS_CAP = 1 << 24
# Characters of a refused input line that its error message quotes
QUOTED_CHARS = 40


def pack_bits(bits) -> np.ndarray:
    """Pack an array of 0/1 values along its last axis into little-endian
    uint64 words: bit j goes to word j // 64 at position j % 64."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = [(0, 0)] * (bits.ndim - 1) + [(0, -packed.shape[-1] % 8)]
    return np.pad(packed, pad).view("<u8")


def subset_xor_table(vectors: np.ndarray) -> np.ndarray:
    """table[..., u, :] is the XOR of vectors[..., j, :] over the set bits j
    of u, for every u in 0 .. 2^m - 1; vectors has shape (..., m, words)."""
    *lead, m, width = vectors.shape
    table = np.zeros((*lead, 1 << m, width), vectors.dtype)
    for j in range(m):
        h = 1 << j
        table[..., h : 2 * h, :] = table[..., :h, :] ^ vectors[..., j, None, :]
    return table


def check_size(n: int, k: int = 0) -> None:
    """Raise InfeasibleError when block length n, or a k x n generator
    matrix, is over its cap."""
    if n > BLOCK_LENGTH_CAP:
        raise InfeasibleError(f"block length n={n} is over the cap {BLOCK_LENGTH_CAP}")
    if k * n > MATRIX_BITS_CAP:
        raise InfeasibleError(
            f"a {k}x{n} generator matrix has {k * n} entries, over the cap {MATRIX_BITS_CAP}"
        )


class BitMatrix:
    """A rows x cols binary matrix, held as a read-only rows x cols uint8
    array of its 0/1 entries.

    rows == 0 is allowed (the generator of the trivial code, e.g. the dual
    of the full space); cols must be positive and rows <= cols.
    """

    __slots__ = ("rows", "cols", "_bits")

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        """The matrix of a two-dimensional array of bool or numeric dtype;
        any nonzero entry counts as 1, tested on the caller's values before
        they are narrowed to uint8, so 256 and 0.5 are 1. Any other dtype,
        such as strings, raises ValueError. The entries are copied, so the
        caller's array stays its own."""
        dense = np.asarray(dense)
        if dense.dtype.kind not in "biufc":
            raise ValueError(f"matrix entries must be bool or numeric, got dtype {dense.dtype}")
        if dense.ndim != 2:
            raise ValueError("dense matrix must be two-dimensional")
        rows, cols = dense.shape
        if cols < 1:
            raise ValueError("matrix needs at least one column")
        if rows > cols:
            raise ValueError(f"need 0 <= rows <= cols, got {rows}x{cols}")
        self = cls.__new__(cls)
        self._bits = np.ascontiguousarray(dense != 0).view(np.uint8)
        self._bits.setflags(write=False)
        self.rows = rows
        self.cols = cols
        return self

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls.from_dense(np.eye(k, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        """The rows x cols uint8 array of 0/1 entries itself: read-only,
        not a copy."""
        return self._bits

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self):
        return hash((self._bits.shape, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def row_reduce(dense: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns (rref, pivot_cols); rref is a fresh uint8 array, pivot_cols the
    list of pivot column indices (its length is the rank).
    """
    a = np.array(dense, dtype=np.uint8, copy=True)
    m, n = a.shape
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        a[[r, p]] = a[[p, r]]
        sel = a[:, c].astype(bool)
        sel[r] = False
        a[sel] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(G: BitMatrix) -> int:
    """GF(2) row rank."""
    return len(row_reduce(G.to_dense())[1])


def parse_header(text: str, names: str):
    """The lines of text, trailing blank ones dropped, and the two integers
    of its first line, the header, which errors call names ("rows cols")."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"line 1: missing header '{names}'")
    return (lines, *parse_ints(lines[0], 2, "line 1", f"header '{names}'"))


def parse_ints(text: str, count: int, where: str, what: str) -> tuple:
    """The count integers of text, which errors place at where (a line or
    a file) and call what. Refused text is quoted up to QUOTED_CHARS
    characters, and a decimal integer too long for int (past Python's
    digit limit) is reported as such, so the message stays short whatever
    the text."""
    fields = text.split()
    try:
        if len(fields) == count:
            return tuple(map(int, fields))
    except ValueError:
        if all(re.fullmatch(r"[+-]?\d+", f) for f in fields):
            # int refuses decimal fields only past its digit limit
            raise ValueError(f"{where}: an integer of {max(map(len, fields))} digits "
                             f"is too long") from None
    quoted = repr(text[:QUOTED_CHARS])
    if len(text) > QUOTED_CHARS:
        quoted += f"... ({len(text)} characters)"
    raise ValueError(f"{where}: expected {what}, got {quoted}")


def parse_matrix(text: str) -> BitMatrix:
    """Parse the text format: header "rows cols", then one 0/1 line per row."""
    lines, k, n = parse_header(text, "rows cols")
    if k < 0 or n < 1 or k > n:
        raise ValueError(f"line 1: invalid dimensions {k}x{n}")
    check_size(n, k)
    rows = lines[1:]
    if len(rows) != k:
        raise ValueError(f"expected {k} rows after the header, got {len(rows)}")
    for i, line in enumerate(rows):
        if len(line) != n:
            raise ValueError(f"row {i + 1}: expected {n} columns, got {len(line)}")
    raw = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8).reshape(k, n)
    bad = np.argwhere((raw != ord("0")) & (raw != ord("1")))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"row {i + 1}: invalid character {rows[i][j]!r} at column {j + 1}")
    return BitMatrix.from_dense(raw - ord("0"))


def serialize_matrix(G: BitMatrix) -> str:
    """Inverse of parse_matrix; parse(serialize(G)) == G."""
    rows = [(row + ord("0")).tobytes().decode("ascii") for row in G.to_dense()]
    return "\n".join([f"{G.rows} {G.cols}", *rows]) + "\n"
