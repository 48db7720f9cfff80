"""The four benchmark workloads: seeded inputs, CLI commands and output checks.

Every input is made here from the run's seed with the benchmark's own numpy
code; the program under test only receives the files and arguments. The
output checks use independent references (dense numpy matmul mod 2, a
plain-Python von Neumann pass, an exact-integer MacWilliams transform of a
brute-force dual) and never call into linext.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

SOURCE_EPS = 0.2  # |P(1) - P(0)|; P(1) = 0.4 for every seeded source
SIM_BLOCKS = 4_000_000  # stream: 64 Mbit through a [16,11] matrix
RAW_BITS = 1 << 27  # file-extract: one 128-Mbit raw file
EXACT_STEPS = 25
SWEEP_STEPS = 200
CHECK_SAMPLE_BLOCKS = 512  # extract blocks recomputed by dense matmul
VN_PREFIX_BYTES = 4096  # raw bytes whose von Neumann output is checked in Python
_CHUNK_BITS = 1 << 23


# -- seeded inputs -----------------------------------------------------------


def full_rank_matrix(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Uniform 0/1 k x n matrix, redrawn until its GF(2) rank is k."""
    while True:
        dense = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if len(rref_gf2(dense)[1]) == k:
            return dense


def matrix_text(dense: np.ndarray) -> str:
    """The documented matrix file format: header "rows cols", one 0/1 line per row."""
    k, n = dense.shape
    rows = ["".join(map(str, row)) for row in dense.tolist()]
    return f"{k} {n}\n" + "\n".join(rows) + "\n"


def write_raw_file(rng: np.random.Generator, path: str, nbits: int) -> None:
    """nbits IID bits with P(1) = (1 - SOURCE_EPS) / 2, packed MSB-first."""
    p1 = (1.0 - SOURCE_EPS) / 2.0
    with open(path, "wb") as fp:
        for start in range(0, nbits, _CHUNK_BITS):
            m = min(_CHUNK_BITS, nbits - start)
            bits = rng.random(m, dtype=np.float32) < p1
            fp.write(np.packbits(bits).tobytes())


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- independent references --------------------------------------------------


def rref_gf2(dense: np.ndarray):
    """Reduced row echelon form over GF(2) and its pivot columns."""
    a = dense.copy()
    pivots = []
    r = 0
    for c in range(a.shape[1]):
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
        if r == a.shape[0]:
            break
    return a, pivots


def parity_check(dense: np.ndarray) -> np.ndarray:
    """A generator of the dual code of a full-rank k x n matrix."""
    n = dense.shape[1]
    rref, pivots = rref_gf2(dense)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    h = np.zeros((len(free), n), np.uint8)
    for i, f in enumerate(free):
        h[i, f] = 1
        for row, p in enumerate(pivots):
            h[i, p] = rref[row, f]
    return h


def brute_force_weights(dense: np.ndarray) -> List[int]:
    """Codeword counts per weight by listing all 2^k codewords (k <= ~16)."""
    k, n = dense.shape
    msgs = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    words = (msgs @ dense.astype(np.int64)) & 1
    return [int(c) for c in np.bincount(words.sum(axis=1), minlength=n + 1)]


def macwilliams_exact(dual_counts: List[int], n: int) -> List[int]:
    """A_j(C) = 2^-(n-k) sum_l B_l K_j(l), with exact Python integers."""
    denom = sum(dual_counts)

    def kraw(j, l):
        return sum(
            (-1) ** s * math.comb(l, s) * math.comb(n - l, j - s)
            for s in range(max(0, j - (n - l)), min(j, l) + 1)
        )

    out = []
    for j in range(n + 1):
        total = sum(c * kraw(j, l) for l, c in enumerate(dual_counts) if c)
        q, rem = divmod(total, denom)
        if rem:
            raise ValueError("dual weight counts are not a valid distribution")
        out.append(q)
    return out


def rm1_generator(m: int) -> np.ndarray:
    """RM(1, m) rows in the documented order: all-ones, then variable i."""
    points = np.arange(1 << m)
    rows = [np.ones(1 << m, np.uint8)]
    rows += [((points >> i) & 1).astype(np.uint8) for i in range(m)]
    return np.array(rows, np.uint8)


def von_neumann_reference(data: bytes) -> List[int]:
    out = []
    for byte in data:
        for shift in (6, 4, 2, 0):
            a, b = (byte >> (shift + 1)) & 1, (byte >> shift) & 1
            if a != b:
                out.append(a)
    return out


# -- workload definitions ----------------------------------------------------


@dataclass
class Result:
    """One finished CLI command, as the checks see it."""

    returncode: int
    stdout: str


@dataclass
class Command:
    label: str
    args: List[str]
    check: Callable[[Result], Optional[str]]  # None when correct, else why not
    source_bits: int  # bits of input the command consumes, for input_mbit_s
    # Self-test hook: damages one output so that `check` must reject it.
    corrupt: Optional[Callable[[Result], Result]] = None


@dataclass
class Workload:
    name: str
    commands: List[Command]
    setup_code: str  # python -c body: import linext and build the code(s)
    digests: Dict[str, str]


def _expect_ok(res: Result) -> Optional[str]:
    if res.returncode != 0:
        return f"exit code {res.returncode}"
    return None


def _derive(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write(path: str, text: str) -> str:
    with open(path, "w") as fp:
        fp.write(text)
    return path


def _setup_matrices(*paths: str) -> str:
    body = "; ".join(
        f"LinearCode(parse_matrix(open({p!r}).read()))" for p in paths
    )
    return (
        "from linext.gf2 import parse_matrix; "
        f"from linext.codes import LinearCode; {body}"
    )


def make_stream(seed: int, work: str) -> Workload:
    # A seeded [16,11] matrix rather than RM(2,4): RM rows of minimum weight
    # put the coordinate-bias statistic exactly on its bound, so simulate's
    # 3-sigma tolerance would fail about 1 seed in 125 by chance alone.
    g = _write(os.path.join(work, "g16x11.txt"), matrix_text(full_rank_matrix(_derive(seed, 1), 11, 16)))
    sim_seed = int(_derive(seed, 2).integers(1 << 31))

    def check(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        if f"blocks={SIM_BLOCKS}" not in res.stdout.splitlines():
            return "blocks= line missing"
        if f"samples={SIM_BLOCKS}" not in res.stdout.splitlines():
            return "samples= does not equal the block count"
        return None

    cmd = Command(
        "simulate",
        ["simulate", "--matrix", g, "--eps", str(SOURCE_EPS),
         "--blocks", str(SIM_BLOCKS), "--seed", str(sim_seed)],
        check, SIM_BLOCKS * 16,
        lambda res: Result(res.returncode, res.stdout.replace("samples=", "samples=1")),
    )
    return Workload("stream", [cmd], _setup_matrices(g),
                    {"g16x11.txt": sha256_file(g), "simulate_seed": str(sim_seed)})


def rm17_packed_reference(raw: np.ndarray) -> np.ndarray:
    """RM(1,7) extraction of whole 128-bit blocks, by AND + popcount parity
    against each generator row packed like the raw bytes (MSB-first)."""
    G = rm1_generator(7)
    rows = np.packbits(G, axis=1).view(np.uint64)  # (8, 2)
    x = raw.view(np.uint64).reshape(-1, 2)
    out = np.empty((x.shape[0], G.shape[0]), np.uint8)
    for i, row in enumerate(rows):
        out[:, i] = np.bitwise_count(x & row).sum(axis=1) & 1
    return np.packbits(out)


def von_neumann_table_reference(raw: np.ndarray) -> np.ndarray:
    """Von Neumann output of an MSB-first byte stream via a per-byte table
    of the (up to four) bits each byte emits: (packed bytes, bit count)."""
    table = np.zeros((256, 4), np.uint8)
    valid = np.zeros((256, 4), bool)
    for byte in range(256):
        for j, bit in enumerate(von_neumann_reference(bytes([byte]))):
            table[byte, j], valid[byte, j] = bit, True
    parts = [table[c][valid[c]] for c in np.array_split(raw, max(1, raw.size >> 20))]
    bits = np.concatenate(parts)
    return np.packbits(bits), bits.size


def make_file_extract(seed: int, work: str) -> Workload:
    raw_path = os.path.join(work, "raw.bits")
    write_raw_file(_derive(seed, 1), raw_path, RAW_BITS)
    raw = np.fromfile(raw_path, np.uint8)
    lin_out = os.path.join(work, "rm17.bits")
    vn_out = os.path.join(work, "vn.bits")
    n, k = 128, 8
    nblocks = RAW_BITS // n

    # Full expected outputs, each cross-checked against a second reference:
    # sampled blocks by dense matmul mod 2, and a plain-Python prefix.
    want_lin = rm17_packed_reference(raw)
    blocks = np.sort(_derive(seed, 2).choice(nblocks, CHECK_SAMPLE_BLOCKS, replace=False))
    x = np.unpackbits(raw.reshape(nblocks, n // 8)[blocks], axis=1)
    dense = (x.astype(np.int64) @ rm1_generator(7).T.astype(np.int64)) & 1
    if not np.array_equal(dense, np.unpackbits(want_lin.reshape(nblocks, k // 8)[blocks], axis=1)):
        raise RuntimeError("packed RM(1,7) reference disagrees with dense matmul")
    want_vn, vn_bits = von_neumann_table_reference(raw)
    prefix = von_neumann_reference(raw[:VN_PREFIX_BYTES].tobytes())
    if np.unpackbits(want_vn)[: len(prefix)].tolist() != prefix:
        raise RuntimeError("table von Neumann reference disagrees with the Python one")

    def check_file(path: str, want: np.ndarray, nbits: int) -> Optional[str]:
        got = np.fromfile(path, np.uint8)
        if got.size != want.size or not np.array_equal(got, want):
            return f"{os.path.basename(path)} differs from the reference output"
        sidecar = path + ".len"
        ragged = open(sidecar).read().strip() if os.path.exists(sidecar) else None
        if ragged != (str(nbits) if nbits % 8 else None):
            return f"{os.path.basename(sidecar)} does not record {nbits} bits"
        return None

    def check_linear(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        if f"bits_out: {nblocks * k}" not in res.stdout.splitlines():
            return "bits_out is not floor(bits/n)*k"
        return check_file(lin_out, want_lin, nblocks * k)

    def check_vn(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        if f"bits_out: {vn_bits}" not in res.stdout.splitlines():
            return "bits_out is not the unequal-pair count"
        return check_file(vn_out, want_vn, vn_bits)

    def flip_first_bit(res: Result) -> Result:
        with open(lin_out, "r+b") as fp:
            first = fp.read(1)[0]
            fp.seek(0)
            fp.write(bytes([first ^ 0x80]))
        return res

    commands = [
        Command("extract-rm17", ["extract", "--code", "rm:1,7", "--in", raw_path, "--out", lin_out],
                check_linear, RAW_BITS, flip_first_bit),
        Command("extract-vn", ["extract", "--baseline", "von-neumann", "--in", raw_path, "--out", vn_out],
                check_vn, RAW_BITS),
    ]
    setup = "from linext.codes import rm_generator; rm_generator(1, 7)"
    return Workload("file-extract", commands, setup, {"raw.bits": sha256_file(raw_path)})


_VERIFY_ROW = re.compile(r"^\S+\s+\S+\s+\S+\s+\S+\s+(PASS|FAIL)$")


def make_exact(seed: int, work: str) -> Workload:
    g = _write(os.path.join(work, "g25x18.txt"), matrix_text(full_rank_matrix(_derive(seed, 1), 18, 25)))

    def check(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        status = [m.group(1) for m in map(_VERIFY_ROW.match, res.stdout.splitlines()) if m]
        if len(status) != EXACT_STEPS * 6:
            return f"{len(status)} check rows, expected {EXACT_STEPS * 6}"
        if any(s != "PASS" for s in status):
            return "a verify row is not PASS"
        return None

    cmd = Command(
        "verify",
        ["verify", "--matrix", g, "--eps-min", "0.02", "--eps-max", "0.5", "--steps", str(EXACT_STEPS)],
        check, (1 << 25) * 25,
        lambda res: Result(res.returncode, res.stdout.replace("PASS", "FAIL", 1)),
    )
    return Workload("exact", [cmd], _setup_matrices(g), {"g25x18.txt": sha256_file(g)})


def parse_code_info(stdout: str) -> Dict[int, int]:
    lines = stdout.splitlines()
    start = lines.index("weight distribution (weight count):") + 1
    return {int(a): int(b) for a, b in (line.split() for line in lines[start:])}


def make_weights(seed: int, work: str) -> Workload:
    g40 = full_rank_matrix(_derive(seed, 1), 28, 40)
    g66 = full_rank_matrix(_derive(seed, 2), 40, 66)
    p40 = _write(os.path.join(work, "g40x28.txt"), matrix_text(g40))
    p66 = _write(os.path.join(work, "g66x40.txt"), matrix_text(g66))
    csv_path = os.path.join(work, "sweep.csv")
    svg_path = os.path.join(work, "sweep.svg")
    dual = brute_force_weights(parity_check(g40))
    want = {l: c for l, c in enumerate(macwilliams_exact(dual, 40)) if c}
    first_csv: List[str] = []

    def check_info(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        if "weights-via: enumerate" not in res.stdout.splitlines():
            return "[40,28] weights did not take the enumerate route"
        try:
            got = parse_code_info(res.stdout)
        except ValueError:
            return "unparseable weight distribution"
        if got != want:
            return "weights differ from the MacWilliams transform of the brute-force dual"
        return None

    def check_sweep(res: Result) -> Optional[str]:
        why = _expect_ok(res)
        if why:
            return why
        digest = sha256_file(csv_path)
        if first_csv and digest != first_csv[0]:
            return "CSV differs from the first run with the same seed"
        with open(csv_path) as fp:
            lines = fp.read().splitlines()
        if "(weights via macwilliams)" not in lines[0]:
            return "[66,40] weights did not take the MacWilliams route"
        m = re.fullmatch(r"# code: \[66,40,(\d+)\]", lines[1])
        rows = [line.split(",") for line in lines[3:]]
        if m is None or len(rows) != SWEEP_STEPS:
            return "CSV header or row count is wrong"
        d = int(m.group(1))
        for r in rows:
            eps, tvd_weight, tvd_worst = float(r[0]), float(r[3]), float(r[4])
            if not math.isclose(tvd_worst, 2.0**40 * eps**d, rel_tol=1e-10):
                return "tvd_worst is not 2^k eps^d"
            if tvd_weight > tvd_worst * (1 + 1e-10):
                return "tvd_weight exceeds tvd_worst"
        with open(svg_path) as fp:
            if not fp.read().rstrip().endswith("</svg>"):
                return "SVG is truncated"
        if not first_csv:
            first_csv.append(digest)
        return None

    def alter_last_count(res: Result) -> Result:
        lines = res.stdout.splitlines()
        l, c = lines[-1].split()
        lines[-1] = f"  {l} {int(c) + 1}"
        return Result(res.returncode, "\n".join(lines) + "\n")

    commands = [
        Command("code-info", ["code-info", "--matrix", p40], check_info, (1 << 28) * 40, alter_last_count),
        Command("bounds-sweep",
                ["bounds-sweep", "--matrix", p66, "--steps", str(SWEEP_STEPS), "--out", csv_path, "--svg", svg_path],
                check_sweep, (1 << 26) * 66),
    ]
    digests = {"g40x28.txt": sha256_file(p40), "g66x40.txt": sha256_file(p66)}
    return Workload("weights", commands, _setup_matrices(p40, p66), digests)


WORKLOADS = {
    "stream": make_stream,
    "file-extract": make_file_extract,
    "exact": make_exact,
    "weights": make_weights,
}
