import argparse
import os
import pathlib
import resource
import shlex
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linext
from linext import cli, codes, pipeline
from linext.bounds import CSV_HEADER
from linext.cli import build_parser, main
from linext.codes import (ENUMERATION_CEILING, enumerate_weights, rm_generator, serialize_weights,
                          weight_distribution)
from linext.gf2 import BitMatrix, serialize_matrix
from linext.pipeline import BiasedSourceSpec, BitStream, generate, linear_extract, von_neumann

from _naive import random_full_rank, to_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodeInfo:
    def test_rm24(self, capsys):
        code, out, _ = run(capsys, "code-info", "--code", "rm:2,4")
        assert code == 0
        assert "n: 16" in out and "k: 11" in out and "d: 4" in out
        assert "weights-via: enumerate" in out
        assert "  4 140" in out

    def test_rm03(self, capsys):
        code, out, _ = run(capsys, "code-info", "--code", "rm:0,3")
        assert code == 0
        assert "n: 8" in out and "k: 1" in out and "d: 8" in out

    def test_oversized_without_weights_is_infeasible(self, capsys):
        code, _, err = run(capsys, "code-info", "--code", "rm:4,8")
        assert code == 3
        assert "external weight distribution" in err

    def test_oversized_with_weights_file(self, capsys, tmp_path):
        # stand-in distribution with the right (n, k); structure-only check
        counts = [0] * 257
        counts[0] = 1
        counts[128] = (1 << 163) - 2
        counts[256] = 1
        wfile = tmp_path / "w.txt"
        wfile.write_text("256 163\n0 1\n128 %d\n256 1\n" % counts[128])
        code, out, _ = run(
            capsys, "code-info", "--code", "rm:4,8", "--weights", str(wfile)
        )
        assert code == 0
        assert "weights-via: external" in out

    def test_matrix_file(self, capsys, tmp_path):
        mfile = tmp_path / "g.txt"
        mfile.write_text(serialize_matrix(rm_generator(1, 3).generator))
        code, out, _ = run(capsys, "code-info", "--matrix", str(mfile))
        assert code == 0
        assert "d: 4" in out

    def test_weights_only(self, capsys, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text(serialize_weights(enumerate_weights(rm_generator(1, 3))))
        code, out, _ = run(capsys, "code-info", "--weights", str(wfile))
        assert code == 0
        assert "d: 4" in out and "weights-via: external" in out

    def test_macwilliams_route_reported(self, capsys):
        # k = 11 over a cap of 5, but n - k = 5 fits: go through the dual
        code, out, _ = run(capsys, "code-info", "--code", "rm:2,4", "--cap", "5")
        assert code == 0
        assert "weights-via: macwilliams" in out
        assert "  4 140" in out

    def test_no_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "code-info")
        assert code == 2
        assert "specify" in err

    def test_two_sources_is_usage_error(self, capsys, tmp_path):
        mfile = tmp_path / "g.txt"
        mfile.write_text("1 2\n11\n")
        with pytest.raises(SystemExit) as exc:
            main(["code-info", "--code", "rm:1,3", "--matrix", str(mfile)])
        assert exc.value.code == 2
        assert "argument --matrix: not allowed with argument --code" in capsys.readouterr().err

    def test_two_sources_checked_before_weights(self, capsys, tmp_path):
        # a weights header past the block-length cap would exit 3 if parsed
        (tmp_path / "g.txt").write_text("1 2\n11\n")
        (tmp_path / "w.txt").write_text("2000000000 3\n0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["code-info", "--code", "rm:1,3", "--matrix", str(tmp_path / "g.txt"),
                  "--weights", str(tmp_path / "w.txt")])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "not allowed with" in err

    def test_bad_selector(self, capsys):
        code, _, err = run(capsys, "code-info", "--code", "golay:23")
        assert code == 2
        assert "selector" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "code-info", "--matrix", "/nonexistent/g.txt")
        assert code == 2


class TestBoundsSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3",
            "--eps-min", "0.1", "--eps-max", "0.3", "--steps", "3",
        )
        assert code == 0
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("rm:1,3" in c for c in comments)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == CSV_HEADER
        assert len(data) == 4

    def test_csv_file_and_svg(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:2,4",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        text = out_csv.read_text()
        assert CSV_HEADER in text
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 51
        svg = out_svg.read_text()
        assert svg.startswith("<svg") and "entropy_weight" in svg

    def test_byte_stable_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert run(
                capsys, "bounds-sweep", "--code", "rm:2,4", "--out", str(p)
            )[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_single_eps(self, capsys):
        code, out, _ = run(capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0")
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0 and len(data) == 2
        assert data[1].startswith("0,0,0.0625,0,0,1,1,1,1,1,standard")

    def test_h_variant_labeled(self, capsys):
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
            "--h-variant", "as-printed",
        )
        assert code == 0
        assert out.splitlines()[-1].endswith(",as-printed")

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "bounds-sweep", "--code", "rm:1,3",
            "--eps-min", "0.5", "--eps-max", "0.1",
        )
        assert code == 2

    def test_bad_svg_path_prints_nothing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
            "--out", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "no" / "a.svg"),
        )
        assert code == 2
        assert out == ""
        assert not (tmp_path / "a.csv").exists()

    def test_bad_csv_path_prints_nothing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
            "--out", str(tmp_path / "no" / "a.csv"), "--svg", str(tmp_path / "a.svg"),
        )
        assert code == 2
        assert out == ""
        assert not (tmp_path / "a.svg").exists()

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_empty_path_is_usage_error(self, capsys, tmp_path, monkeypatch, flag):
        # an empty path is a bad path, not an absent one: no CSV on stdout
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
                             f"{flag}=")
        assert code == 2
        assert out == ""
        assert "No such file" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_path_leaves_old_file_unchanged(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("old\n")
        code, _, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
            "--out", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "no" / "a.svg"),
        )
        assert code == 2
        assert (tmp_path / "a.csv").read_text() == "old\n"

    def test_bad_path_is_refused_before_the_weights_are_counted(self, capsys, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setattr(cli.codes, "weight_distribution",
                            lambda *_: pytest.fail("weights counted before the paths were opened"))
        code, out, err = run(capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
                             "--out", str(tmp_path / "a.csv"),
                             "--svg", str(tmp_path / "no" / "a.svg"))
        assert (code, out) == (2, "")
        assert "No such file" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, status", [
        (["--code", "rm:3,7", "--cap", "10"], 3),  # neither k = 64 nor n - k = 64 within the cap
        (["--code", "rm:1,3", "--weights", "w.txt"], 2),  # RM(2,4)'s [16,11] weights
        (["--code", "rm:1,3"], None),  # KeyboardInterrupt during the walk
    ], ids=["infeasible", "weights-mismatch", "interrupt"])
    def test_failed_run_removes_new_files_and_keeps_old(self, capsys, tmp_path, monkeypatch,
                                                        argv, status):
        (tmp_path / "w.txt").write_text(serialize_weights(enumerate_weights(rm_generator(2, 4))))
        old = tmp_path / "old.svg"
        old.write_bytes(b"<svg>old</svg>\n")
        monkeypatch.chdir(tmp_path)
        argv = ["bounds-sweep", *argv, "--eps", "0.2", "--out", "new.csv", "--svg", "old.svg"]
        if status is None:
            def interrupt(*_):
                raise KeyboardInterrupt
            monkeypatch.setattr(cli.codes, "weight_distribution", interrupt)
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (status, "")
            assert err.startswith("error:")
        assert not (tmp_path / "new.csv").exists()
        assert old.read_bytes() == b"<svg>old</svg>\n"

    @pytest.mark.parametrize("alias, old", [(None, None), (None, "old\n"), ("symlink", None),
                                            ("symlink", "old\n"), ("hardlink", "old\n")],
                             ids=["same-new", "same-old", "symlink-new", "symlink-old",
                                  "hardlink-old"])
    def test_out_and_svg_one_file_is_usage_error(self, capsys, tmp_path, alias, old):
        # the chart would replace the CSV: refused before either is opened
        csv, svg = tmp_path / "a.csv", tmp_path / "b.svg"
        if old is not None:
            csv.write_text(old)
        if alias == "symlink":
            svg.symlink_to(csv)  # dangling while a.csv does not exist
        elif alias == "hardlink":
            os.link(csv, svg)
        else:
            svg = csv
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
                             "--out", str(csv), "--svg", str(svg))
        assert (code, out) == (2, "")
        assert "the chart would replace the CSV" in err
        assert sorted(tmp_path.iterdir()) == before
        assert (csv.read_text() if csv.exists() else None) == old

    def test_weights_only_source(self, capsys, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text(serialize_weights(enumerate_weights(rm_generator(1, 3))))
        code, out, _ = run(
            capsys, "bounds-sweep", "--weights", str(wfile), "--eps", "0.2",
        )
        assert code == 0
        assert f"# source: {wfile} (weights via external)" in out.splitlines()


class TestExtract:
    def test_identity_roundtrip(self, capsys, tmp_path):
        mfile = tmp_path / "id.txt"
        mfile.write_text(serialize_matrix(BitMatrix.from_dense(np.eye(8))))
        src = tmp_path / "in.bits"
        dst = tmp_path / "out.bits"
        stream = generate(BiasedSourceSpec(0.0, seed=1), 4096)
        stream.write(src)
        code, out, _ = run(
            capsys, "extract", "--matrix", str(mfile),
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert BitStream.read(dst).data.tobytes() == stream.data.tobytes()
        assert "blocks: 512" in out
        assert "bits_out: 4096" in out

    def test_rm24_counts(self, capsys, tmp_path):
        src = tmp_path / "in.bits"
        dst = tmp_path / "out.bits"
        generate(BiasedSourceSpec(0.1, seed=2), 1600).write(src)
        code, out, _ = run(
            capsys, "extract", "--code", "rm:2,4", "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert "bits_in: 1600" in out and "bits_out: 1100" in out
        assert len(BitStream.read(dst)) == 1100

    def test_von_neumann_baseline_rate(self, capsys, tmp_path):
        src = tmp_path / "in.bits"
        dst = tmp_path / "out.bits"
        generate(BiasedSourceSpec(0.0, seed=3), 1_000_000).write(src)
        code, out, _ = run(
            capsys, "extract", "--baseline", "von-neumann",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        emitted = len(BitStream.read(dst))
        # mean 250000, 4 sigma = 4*sqrt(500000)/2 ~ 1415
        assert abs(emitted - 250_000) <= 1415

    @pytest.mark.parametrize("source", [["--code", "rm:2,4"], ["--matrix", "G.txt"]])
    def test_von_neumann_takes_no_code(self, capsys, tmp_path, source):
        src = tmp_path / "in.bits"
        dst = tmp_path / "out.bits"
        generate(BiasedSourceSpec(0.0, seed=5), 64).write(src)
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--baseline", "von-neumann", *source,
                  "--in", str(src), "--out", str(dst)])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"argument {source[0]}: not allowed with argument --baseline" in err
        assert not dst.exists()

    def test_rank_deficient_matrix(self, capsys, tmp_path):
        mfile = tmp_path / "bad.txt"
        mfile.write_text("2 2\n11\n11\n")
        src = tmp_path / "in.bits"
        generate(BiasedSourceSpec(0.0, seed=4), 64).write(src)
        code, _, err = run(
            capsys, "extract", "--matrix", str(mfile),
            "--in", str(src), "--out", str(tmp_path / "o.bits"),
        )
        assert code == 2
        assert "rank" in err

    def test_same_file_is_usage_error(self, capsys, tmp_path):
        # streaming would truncate the input before reading it
        src = tmp_path / "in.bits"
        generate(BiasedSourceSpec(0.2, seed=6), 1003).write(src)
        os.link(src, tmp_path / "link.bits")
        before = src.read_bytes(), (tmp_path / "in.bits.len").read_text()
        for out in (src, tmp_path / "." / "in.bits", tmp_path / "link.bits"):
            code, stdout, err = run(capsys, "extract", "--code", "rm:1,3",
                                    "--in", str(src), "--out", str(out))
            assert (code, stdout) == (2, "")
            assert "is the input file" in err
        assert (src.read_bytes(), (tmp_path / "in.bits.len").read_text()) == before

    @pytest.mark.parametrize("sidecar", ["13\n", None], ids=["ragged", "whole-bytes"])
    def test_out_is_input_sidecar_is_usage_error(self, capsys, tmp_path, sidecar):
        # writing p.bits.len would replace the input's length with binary
        src, dst = tmp_path / "p.bits", tmp_path / "p.bits.len"
        src.write_bytes(b"\xa5\x38")
        if sidecar:
            dst.write_text(sidecar)
        code, out, err = run(capsys, "extract", "--code", "rm:1,3",
                             "--in", str(src), "--out", str(dst))
        assert (code, out) == (2, "")
        assert "is the other's .len sidecar" in err
        assert src.read_bytes() == b"\xa5\x38"
        assert (dst.read_text() if dst.exists() else None) == sidecar

    def test_input_is_out_sidecar_is_usage_error(self, capsys, tmp_path):
        # writing q would remove or rewrite q.len, the input, as q's sidecar
        src, dst = tmp_path / "q.len", tmp_path / "q"
        src.write_bytes(bytes(range(64)))
        code, out, err = run(capsys, "extract", "--code", "rm:1,3",
                             "--in", str(src), "--out", str(dst))
        assert (code, out) == (2, "")
        assert "is the other's .len sidecar" in err
        assert src.read_bytes() == bytes(range(64))
        assert not dst.exists() and not (tmp_path / "q.len.len").exists()

    def test_out_dev_null(self, capsys, tmp_path):
        src = tmp_path / "in.bits"
        src.write_bytes(bytes([0b01100110]) * 128)  # 1024 bits, 512 unequal pairs
        for argv in (["--code", "rm:1,3"], ["--baseline", "von-neumann"]):
            code, out, _ = run(capsys, "extract", *argv, "--in", str(src), "--out", os.devnull)
            assert code == 0 and "bits_out: 512" in out.splitlines()

    def test_pipe_output_gets_no_sidecar(self, capsys, tmp_path):
        src, fifo = tmp_path / "in.bits", tmp_path / "out.fifo"
        generate(BiasedSourceSpec(0.2, seed=7), 1024).write(src)  # 250 bits out
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "extract", "--baseline", "von-neumann",
                           "--in", str(src), "--out", str(fifo))
        reader.join(timeout=60)
        assert code == 0 and "bits_out: 250" in out.splitlines()
        assert not reader.is_alive() and len(got[0]) == 32
        assert not (tmp_path / "out.fifo.len").exists()

    @pytest.mark.parametrize(
        "data, sidecar",
        [(b"\xff\x80", b"abc"), (b"", b"-5"), (b"\xff\x80", b"17"), (b"\xff\x80", b"8"),
         (b"\xff\x80", b"1" * 5000), (b"\xff\x80", b""), (b"\xff\x80", b"1\xff"),
         # int() reads each of these as 13, which fits the 2 bytes
         (b"\xff\x80", b"1_3"), (b"\xff\x80", "\u0661\u0663".encode()),
         (b"\xff\x80", "\uff11\uff13".encode())],
        ids=["garbage", "negative", "too-long", "too-short", "huge-digits", "empty",
             "non-utf8", "separator", "arabic-indic", "full-width"],
    )
    def test_bad_sidecar_leaves_output_alone(self, capsys, tmp_path, data, sidecar):
        src, dst = tmp_path / "in.bits", tmp_path / "out.bits"
        src.write_bytes(data)
        (tmp_path / "in.bits.len").write_bytes(sidecar + b"\n")
        argv = ["extract", "--code", "rm:1,3", "--in", str(src), "--out", str(dst)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {src}.len: ")
        assert len(err) < 200  # a 5,000-digit length is named, not echoed
        assert not dst.exists() and not (tmp_path / "out.bits.len").exists()
        dst.write_bytes(b"old")
        (tmp_path / "out.bits.len").write_text("23\n")
        assert run(capsys, *argv)[:2] == (2, "")
        assert dst.read_bytes() == b"old"
        assert (tmp_path / "out.bits.len").read_text() == "23\n"

    @pytest.mark.parametrize("baseline", [False, True], ids=["linear", "von-neumann"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_file_to_file_matches_in_memory(self, capsys, tmp_path, baseline, data):
        # chunks of max(8, 64 // (8n) · 8) blocks, a multiple of 8 as the
        # chunk rule's are, so a few hundred bits cross several boundaries
        if baseline:
            n, argv, extract = 2, ["--baseline", "von-neumann"], von_neumann
        else:
            n = data.draw(st.integers(1, 150), label="n")
            k = data.draw(st.integers(1, min(n, 12)), label="k")
            G = random_full_rank(np.random.default_rng(data.draw(st.integers(0, 2**32))), k, n)
            (tmp_path / "G.txt").write_text(serialize_matrix(G))
            argv = ["--matrix", str(tmp_path / "G.txt")]
            extract = lambda s: linear_extract(G, s)  # noqa: E731
        chunk = max(8, 64 // (8 * n) * 8) * n
        nbits = max(0, data.draw(st.integers(0, 4)) * chunk + data.draw(st.integers(-n - 8, n + 8)))
        src, dst = tmp_path / "in.bits", tmp_path / "out.bits"
        src.write_bytes(data.draw(st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8)))
        sidecar = tmp_path / "in.bits.len"
        sidecar.unlink(missing_ok=True)
        if nbits % 8:  # the padding bits past nbits are drawn too, so mostly dirty
            sidecar.write_text(f"{nbits}\n")
        want = extract(BitStream.read(src))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_chunk_blocks", lambda n: chunk // n)
            code, out, _ = run(capsys, "extract", *argv, "--in", str(src), "--out", str(dst))
        assert code == 0
        assert f"bits_in: {nbits}" in out.splitlines()
        assert f"bits_out: {len(want)}" in out.splitlines()
        assert dst.read_bytes() == want.data.tobytes()
        out_len = tmp_path / "out.bits.len"
        assert (out_len.read_text() if out_len.exists() else None) == (
            f"{len(want)}\n" if len(want) % 8 else None)


class TestVerify:
    def test_rm13_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--code", "rm:1,3", "--eps", "0.2")
        assert code == 0
        assert "FAIL" not in out
        assert "all bounds hold" in out
        for name in ("tvd-weight", "pointwise", "coord-bias", "entropy", "min-entropy"):
            assert name in out

    def test_eps_zero_trivial_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--code", "rm:1,3", "--eps", "0")
        assert code == 0

    def test_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--code", "rm:1,3",
            "--eps-min", "0.1", "--eps-max", "0.4", "--steps", "4",
        )
        assert code == 0
        assert out.count("tvd-weight") == 4

    def test_single_xor_row_equality_case(self, capsys, tmp_path):
        mfile = tmp_path / "g.txt"
        mfile.write_text("1 2\n11\n")
        code, out, _ = run(capsys, "verify", "--matrix", str(mfile), "--eps", "0.5")
        assert code == 0
        line = next(l for l in out.splitlines() if "coord-bias" in l)
        assert "0.25" in line  # bias bound met with equality

    def test_oversized_suggests_simulate(self, capsys):
        # k = 26 is over the oracle's 2^k-bucket cap; rejected before output
        code, out, err = run(capsys, "verify", "--code", "rm:3,5", "--eps", "0.1")
        assert code == 3
        assert err == "error: k=26 needs 2^26 buckets, over the cap 24; try `linext simulate`\n"
        assert out == ""

    def test_n32_feasible_when_k_fits(self, capsys):
        # n = 32, k = 16: the oracle's cost depends on k only
        code, out, _ = run(capsys, "verify", "--code", "rm:2,5", "--eps", "0.1")
        assert code == 0
        assert "[32,16,8]" in out and "all bounds hold" in out

    def test_weights_are_those_of_the_matrix(self, capsys, tmp_path):
        # verify counts A_l from its own oracle walk; its tvd-weight bound and
        # d must be the ones bounds-sweep gets by enumerating the same matrix
        rng = np.random.default_rng(61)
        mfile = tmp_path / "g.txt"
        mfile.write_text(serialize_matrix(random_full_rank(rng, 12, 20)))
        _, sweep, _ = run(capsys, "bounds-sweep", "--matrix", str(mfile), "--eps", "0.3")
        code, out, _ = run(capsys, "verify", "--matrix", str(mfile), "--eps", "0.3")
        assert code == 0
        d = sweep.splitlines()[1].split(",")[-1].rstrip("]")
        assert out.startswith(f"verify {mfile} [20,12,{d}] ")
        tvd_weight = sweep.splitlines()[-1].split(",")[3]
        row = next(l for l in out.splitlines() if "tvd-weight" in l)
        assert row.split()[3] == tvd_weight

    @pytest.mark.parametrize(
        "grid",
        [("--steps", "1"), ("--eps-min", "0.5", "--eps-max", "0.1"), ("--eps", "1.5")],
    )
    def test_bad_grid_rejected_before_output(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--code", "rm:1,3", *grid)
        assert code == 2
        assert out == ""
        assert "error:" in err


@pytest.mark.parametrize("argv, longest", [
    (["verify", "--code", "rm:1,3", "--eps-min", "0.05", "--eps-max", "0.45", "--steps", "9"],
     "1.09375048828e-05"),
    (["verify", "--code", "rm:1,3", "--eps-min", "0.05", "--eps-max", "0.45", "--steps", "7"],
     "0.116666666667"),
    (["simulate", "--code", "rm:2,5", "--eps", "0", "--blocks", "100"], "1.52587890625e-05"),
], ids=["verify-stat", "verify-eps", "simulate-bound"])
def test_check_table_status_column_is_fixed(capsys, argv, longest):
    # format_real strings run to 19 characters; shorter columns shift a row
    code, out, _ = run(capsys, *argv)
    assert code == 0 and longest in out
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("eps "))
    col = lines[start].index("status")
    assert col == 3 * 19 + 11 + 4 * 2
    rows = lines[start + 1 : -1]
    assert rows and all(l[col:] in ("PASS", "FAIL") and l[col - 2 : col] == "  " for l in rows)


class TestSimulate:
    def test_reproducible_report(self, capsys):
        args = (
            "simulate", "--code", "rm:2,4", "--eps", "0.2",
            "--blocks", "20000", "--seed", "7",
        )
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "tol_tvd-weight=0.377686798957" in out_a and "samples=20000" in out_a

    def test_all_checks_pass_small_code(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:1,3", "--eps", "0.3",
            "--blocks", "50000", "--seed", "11",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_degenerate_eps_one(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:1,3", "--eps", "1",
            "--blocks", "1000", "--seed", "0",
        )
        # all-zero input -> constant output -> min-entropy 0; bounds vacuous
        assert code == 0
        assert "min_entropy=0" in out

    def test_marginal_only(self, capsys):
        # k = 26 is over the 2^k-bucket cap: the per-coordinate report only
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:3,5", "--eps", "0.2",
            "--blocks", "20000", "--seed", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("coord_biases=0.0095,0.0118,")
        assert lines[3:] == [
            "samples=20000",
            "tol_coord-bias=0.0329529953078",
            "alpha=0.001",
            "eps                  check        sampled              bound                status",
            "0.2                  coord-bias   0.0138               0.0016               PASS",
            "all bounds hold",
        ]

    def test_source_over_the_cap_is_refused_before_the_weights_are_counted(self, capsys,
                                                                              monkeypatch):
        monkeypatch.setattr(cli.codes, "weight_distribution",
                            lambda *_: pytest.fail("weights counted before the source cap"))
        code, out, err = run(capsys, "simulate", "--code", "rm:3,5", "--eps", "0.2",
                             "--blocks", "100000000000000")
        assert (code, out) == (3, "")
        assert "3200000000000000 source bits, over the cap" in err

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_nonpositive_blocks_is_usage_error(self, capsys, blocks):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--code", "rm:1,3", "--eps", "0.2", "--blocks", blocks])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--blocks" in captured.err

    def test_marginal_only_infeasible_weights_is_checked_or_exits_3(self, capsys, tmp_path):
        # an infeasible weight distribution means no bound to check: exit 3
        argv = ["simulate", "--code", "rm:3,5", "--eps", "0.2", "--blocks", "20000",
                "--seed", "3", "--cap", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "--weights FILE" in err
        path = tmp_path / "rm35.txt"
        path.write_text(serialize_weights(weight_distribution(rm_generator(3, 5))[0]))
        code, out, _ = run(capsys, *argv, "--weights", str(path))
        assert code == 0
        assert "0.2                  coord-bias   0.0138               0.0016               PASS" in out
        assert out.endswith("all bounds hold\n")

    @pytest.mark.parametrize("seed, eps", [("5", "0.1"), ("3", "0.6"), ("4", "0.3")])
    def test_coord_bias_max_over_k_is_not_a_false_alarm(self, capsys, seed, eps):
        # these runs exceeded the per-coordinate 3/sqrt(N) tolerance by chance
        # (seed 5: stat 0.00888 > 0.0067); the union-bounded tolerance holds
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:2,5", "--eps", eps,
            "--blocks", "200000", "--seed", seed,
        )
        assert code == 0
        assert {"tol_coord-bias=0.0101850337171", "alpha=0.001"} <= set(out.splitlines())

    @pytest.mark.parametrize("blocks", ["300", "1000"])
    def test_uniform_output_is_not_a_violation(self, capsys, blocks):
        # eps 0 makes the output exactly uniform, so every bound holds; a
        # min-entropy check with a first-order tolerance failed 37 of these 80
        for seed in range(40):
            code, out, _ = run(capsys, "simulate", "--code", "rm:2,4", "--eps", "0",
                               "--blocks", blocks, "--seed", str(seed))
            assert (seed, code, "FAIL" in out) == (seed, 0, False)

    def test_k_over_histogram_cap_gets_marginal_report(self, capsys):
        # k = 120 cannot be histogrammed and its outputs span two words
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:5,7", "--eps", "0.1",
            "--blocks", "1000", "--seed", "1",
        )
        assert code == 0
        lines = out.splitlines()
        biases = lines[2].removeprefix("coord_biases=").split(",")
        assert (len(biases), max(map(float, biases))) == (120, 0.102)
        assert lines[:2] + lines[3:] == [
            "simulate RM(5,7) [128,120] eps=0.1 seed=1",
            "blocks=1000",
            "samples=1000",
            "tol_coord-bias=0.157406443339",
            "alpha=0.001",
            "eps                  check        sampled              bound                status",
            "0.1                  coord-bias   0.102                0.0001               PASS",
            "all bounds hold",
        ]

    def test_few_blocks_on_uniform_output_pass_pointwise(self, capsys):
        # 100 samples have max_prob >= 0.01 whatever the code, far over the
        # bound 2^-16: the tolerance must grow like ln(2^k/alpha)/N here
        for seed in range(40):
            code, out, _ = run(capsys, "simulate", "--code", "rm:2,5", "--eps", "0",
                               "--blocks", "100", "--seed", str(seed))
            assert (seed, code, "FAIL" in out) == (seed, 0, False)
        assert "tol_pointwise=0.120033160036" in out.splitlines()

    def test_tvd_tolerance_holds_its_false_alarm_rate(self, capsys):
        # RM(0,4) is [16,1] with A_16 = 1, so the weight bound eps^16 is the
        # true delta: only the tolerance keeps the sampled delta from failing
        for seed in range(40):
            code, out, _ = run(capsys, "simulate", "--code", "rm:0,4", "--eps", "0.3",
                               "--blocks", "2000", "--seed", str(seed))
            assert (seed, code) == (seed, 0)
        assert "tol_tvd-weight=0.0910716730938" in out.splitlines()

    def test_stats_lines_format(self):
        stats = pipeline.empirical_stats(to_stream([1, 0, 1] * 50), 3)
        lines = cli._stats_lines(stats)
        assert "max_prob=1" in lines
        assert "samples=50" in lines
        assert any(l.startswith("tvd=0.875") for l in lines)
        profile = pipeline.output_weight_profile(rm_generator(1, 3).generator)
        exact = pipeline.stats_from_profile(profile, 0.2)
        assert not any(l.startswith("samples=") for l in cli._stats_lines(exact))

    def test_dimension_past_double_range(self, tmp_path):
        # k = 2036: 2.0**k overflows, and only coord-bias, which needs no
        # 2^k, is built and checked
        res = _run_limited(tmp_path, ["simulate", "--code", "rm:9,11", "--eps", "0.1",
                                      "--blocks", "10"])
        assert res.returncode == 0
        assert "Traceback" not in res.stderr
        assert res.stdout.splitlines()[-2].split()[1:] == ["coord-bias", "1", "0.0001", "PASS"]


class TestCodeSource:
    """The parser owns the code-source rule: --code and --matrix are one
    mutually exclusive group, required by verify and simulate, and extract's
    group adds --baseline and is required too. code-info and bounds-sweep
    also take --weights alone, so they refuse a missing source themselves. A
    flag given an empty value is present, and the code it names is refused."""

    TAIL = {
        "code-info": [],
        "bounds-sweep": ["--eps", "0.1"],
        "verify": ["--eps", "0.1"],
        "simulate": ["--eps", "0.1", "--blocks", "100"],
        "extract": ["--in", "in.bits", "--out", "out.bits"],
    }
    NEITHER = {
        "code-info": "specify a code via --code, --matrix or --weights",
        "bounds-sweep": "specify a code via --code, --matrix or --weights",
        "verify": "one of the arguments --code --matrix is required",
        "simulate": "one of the arguments --code --matrix is required",
        "extract": "one of the arguments --code --matrix --baseline is required",
    }

    @pytest.mark.parametrize("case", ["both", "neither", "empty-code", "empty-matrix"])
    @pytest.mark.parametrize("command", list(TAIL))
    def test_refused(self, capsys, monkeypatch, tmp_path, command, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.bits").write_bytes(bytes(8))
        (tmp_path / "g.txt").write_text("1 2\n11\n")
        source, message = {
            "both": (["--code", "rm:1,3", "--matrix", "g.txt"],
                     "argument --matrix: not allowed with argument --code"),
            "neither": ([], self.NEITHER[command]),
            "empty-code": (["--code="], "unknown code selector ''"),
            "empty-matrix": (["--matrix="], "Is a directory"),
        }[case]
        argv = [command, *source, *self.TAIL[command]]
        if message.startswith(("argument", "one of")):  # argparse's own errors
            with pytest.raises(SystemExit) as exc:
                main(argv)
            status = exc.value.code
        else:
            status = main(argv)
        out, err = capsys.readouterr()
        assert (status, out) == (2, "")
        assert "Traceback" not in err and "error:" in err and message in err
        assert not (tmp_path / "out.bits").exists()


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds-sweep", "--h-variant", "bogus", "--code", "rm:1,3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["code-info", "--code", "rm:1,3"],
            ["bounds-sweep", "--code", "rm:1,3", "--eps", "0.1"],
            ["extract", "--code", "rm:1,3", "--in", "x.bits", "--out", "y.bits"],
            ["verify", "--code", "rm:1,3", "--eps", "0.1"],
            ["simulate", "--code", "rm:1,3", "--eps", "0.1"],
        ],
    )
    def test_negative_cap_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["code-info", "--code", "rm:3,6", "--cap", "20"],
            ["simulate", "--code", "rm:4,8", "--eps", "0.1", "--blocks", "100"],
            ["simulate", "--code", "rm:2,4", "--eps", "0.2", "--cap", "2"],
            ["bounds-sweep", "--code", "rm:3,6", "--cap", "20", "--eps", "0.1"],
            ["verify", "--code", "rm:3,5", "--eps", "0.1"],
        ],
    )
    def test_infeasible_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("command", ["verify", "code-info", "bounds-sweep", "simulate"])
    def test_trivial_code_is_usage_error(self, capsys, tmp_path, command):
        # a 0 x 5 generator has no nonzero codeword, so no minimum distance
        (tmp_path / "g.txt").write_text("0 5\n")
        argv = [command, "--matrix", str(tmp_path / "g.txt")]
        if command != "code-info":
            argv += ["--eps", "0.2"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "minimum distance is undefined for the trivial code" in err

    def test_eps_checked_before_weights(self, capsys):
        # the bad eps is a usage error even though the weights are infeasible
        code, out, err = run(
            capsys, "simulate", "--code", "rm:2,4", "--eps", "1.5", "--cap", "2"
        )
        assert code == 2
        assert out == ""
        assert "eps" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--code", "rm:1,3", "--eps", "0.2", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "code-info", "bounds-sweep"])
    def test_weights_for_another_code_is_usage_error(self, capsys, tmp_path, command):
        # RM(2,4)'s [16,11] distribution offered for the [8,4] RM(1,3)
        wfile = tmp_path / "w.txt"
        wfile.write_text(serialize_weights(enumerate_weights(rm_generator(2, 4))))
        argv = [command, "--code", "rm:1,3", "--weights", str(wfile)]
        if command != "code-info":
            argv += ["--eps", "0.2"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "[16,11]" in err and "[8,4]" in err


def _flag_values(valid):
    """A flag's text: a small valid value or one of the malformed ones."""
    bad = ["-1", "-0.5", "nan", "inf", "-inf", "1e400", "garbage", "", "0x10", "1_0", " 3"]
    return st.one_of(valid.map(str), st.sampled_from(bad))


# Most bytes of stderr a fuzzed command line may write: argparse's usage
# and error lines, or one error line, which quotes at most
# gf2.QUOTED_CHARS characters of a refused input line
STDERR_BYTES = 1024


def _fuzzed_status(capsys, argv):
    """Exit status of one fuzzed command line, after the checks every
    command line must pass: a known status, no traceback, stderr under
    STDERR_BYTES, and nothing on stdout when the run is refused."""
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        status = exc.code
    out, err = capsys.readouterr()
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(err.encode()) < STDERR_BYTES
    if status in (2, 3):
        assert out == "" and err.startswith(("usage:", "error:"))
    return status


# Every numeric flag of every command, and the kind its error names
NUMERIC_FLAGS = {
    "simulate": {"--blocks": "int", "--seed": "int", "--cap": "int", "--eps": "float"},
    "code-info": {"--cap": "int"},
    "bounds-sweep": {"--cap": "int", "--eps": "float", "--eps-min": "float",
                     "--eps-max": "float", "--steps": "int"},
    "verify": {"--eps": "float", "--eps-min": "float", "--eps-max": "float", "--steps": "int",
               "--tol": "float"},
}
# Text that int() and float() read as 10, and two more that float() reads;
# ids are "<text>-<flag>", the flag led by its command but for simulate's
NUMERIC_FLAG_CASES = [
    pytest.param(command, flag, kind, text,
                 id=f"{name}-{flag if command == 'simulate' else f'{command} {flag}'}")
    for command, flags in NUMERIC_FLAGS.items()
    for flag, kind in flags.items()
    for name, text in [("separator", "1_0"), ("arabic-indic", "\u0661\u0660"),
                       ("full-width", "\uff11\uff10"), ("space", " 10")]
    + ([("exponent-separator", "1_0e-1"), ("arabic-indic-point", "\u0660.\u0665")]
       if kind == "float" else [])
]


class TestSimulateFlagFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        code=st.sampled_from(["rm:1,3", "rm:3,5"]),  # the full and the k > 24 report
        eps=_flag_values(st.floats(0.0, 1.0)),
        blocks=_flag_values(st.one_of(st.integers(1, 300), st.sampled_from([10**20, 2**64]))),
        seed=_flag_values(st.one_of(st.integers(0, 2**64), st.just(2**200))),
    )
    def test_no_traceback(self, capsys, code, eps, blocks, seed):
        argv = ["simulate", "--code", code, "--eps", eps, "--blocks", blocks, "--seed", seed]
        _fuzzed_status(capsys, argv)

    def test_negative_seed_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--code", "rm:1,3", "--eps", "0.1", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be finite and at least 0, got '-1'" in captured.err

    @pytest.mark.parametrize("command, flag, kind, text", NUMERIC_FLAG_CASES)
    def test_int_flags_are_ascii_decimal(self, capsys, command, flag, kind, text):
        # every numeric flag, float ones too, refuses what is not ASCII decimal
        argv = [command, "--code", "rm:1,3", *(["--eps", "0.1"] if command == "simulate" else [])]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, text])
        assert exc.value.code == 2
        assert f"argument {flag}: expected {kind}, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds-sweep", "verify"])
    def test_negative_zero_reads_as_zero(self, capsys, command):
        # float("-0") is -0.0, which the table and the CSV would print as -0
        assert main([command, "--code", "rm:1,3", "--eps", "-0"]) == 0
        # the CSV's one row, or verify's last row before its verdict line
        row = capsys.readouterr().out.splitlines()[-1 if command == "bounds-sweep" else -2]
        assert row.split(",")[0].split()[0] == "0"

    def test_numeric_flags_are_all_listed(self):
        subparsers = next(a for a in build_parser()._actions if a.choices)
        typed = {command: {a.option_strings[0] for a in p._actions if a.type is not None}
                 for command, p in subparsers.choices.items()}
        assert typed == {**{c: set(f) for c, f in NUMERIC_FLAGS.items()}, "extract": set()}


class TestGridFlagFuzz:
    """The eps-grid flags of verify and bounds-sweep, each present or not.
    Valid --steps values stay at most 50, so no run prints a huge grid."""

    GRID_FLAGS = {
        "--eps": _flag_values(st.floats(0.0, 1.0)),
        "--eps-min": _flag_values(st.floats(0.0, 1.0)),
        "--eps-max": _flag_values(st.floats(0.0, 1.0)),
        "--steps": _flag_values(st.integers(0, 50)),
    }

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["verify", "bounds-sweep"]),
        flags=st.fixed_dictionaries({}, optional=GRID_FLAGS),
        tol=st.none() | _flag_values(st.floats(0.0, 1.0)),
    )
    def test_no_traceback(self, capsys, command, flags, tol):
        if command == "verify" and tol is not None:
            flags["--tol"] = tol
        argv = [command, "--code", "rm:1,3", *(x for item in flags.items() for x in item)]
        status = _fuzzed_status(capsys, argv)
        assert status != 1 or command == "verify"  # exit 1 means a violated bound


_BAD_DIMENSIONS = ["0", "-1", "-9", str(2**64), "1" * 30, "1.5", "1e3", "0x8", "x", "4 5",
                   "\u0663"]
_BAD_CHARACTERS = ["2", " ", "\t", "a", "\u00e9", "\x00", "\uff11", "\u2028", "\x0c"]
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def matrix_files(draw):
    """The bytes of a matrix file for a k x n generator, 1 <= k <= 8 and n <= 12,
    with any of six faults: a header dimension that is negative, huge or not
    an integer; rows missing, extra or ragged; a character other than 0 or 1
    (some of them end a line for str.splitlines); CRLF line ends; trailing
    blank lines; bytes that are not UTF-8."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(8, n)))
    # each fault in about one file of four, so about a third of the runs exit 0
    faults = {f for f in ("header", "rows", "char", "crlf", "blank", "bytes")
              if draw(st.integers(0, 3)) == 3}
    header = [str(k), str(n)]
    if "header" in faults:
        header[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_DIMENSIONS))
    if "rows" in faults:
        rows = draw(st.lists(st.text("01", max_size=n + 2), max_size=k + 2))
    else:  # numpy's rows, which are mostly of full rank, unlike hypothesis's runs of one bit
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = ["".join(map(str, row)) for row in rng.integers(0, 2, (k, n))]
    if "char" in faults and rows:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i])))
        rows[i] = rows[i][:j] + draw(st.sampled_from(_BAD_CHARACTERS)) + rows[i][j + 1 :]
    blank = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=3))
    lines = [" ".join(header), *rows, *(blank if "blank" in faults else [])]
    data = ("\r\n" if "crlf" in faults else "\n").join(lines).encode() + b"\n"
    if "bytes" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]
    return data


class TestMatrixFileFuzz:
    """Matrix-file contents through --matrix, in process: every command that
    reads one ends in a known status, never in a traceback."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=matrix_files())
    def test_no_traceback(self, capsys, tmp_path, data):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        for argv in (["code-info"], ["verify", "--steps", "3"],
                     ["simulate", "--eps", "0.2", "--blocks", "50"]):
            status = _fuzzed_status(capsys, [*argv, "--matrix", str(path)])
            assert status != 1 or argv[0] != "code-info"  # exit 1 means a violated bound


_BAD_WEIGHT_HEADER_FIELDS = ["0", "-1", "-9", str(2**64), "1" * 30, "1.5", "x", "4 5"]


@st.composite
def weights_files(draw):
    """The bytes of a weights file for an [n,k] code, 1 <= k <= 8 and
    k <= n <= 12, about half of them of RM(1,3)'s shape [8,4] so that
    simulate runs, with any of seven faults: a header field that is zero, negative, huge, not an
    integer or one too many, k > n, or n over the block-length cap; a count
    line with a missing count, a third field, a repeated or too large
    weight or a negative count; totals with A_0 != 1, a sum other than 2^k
    or a count of 5,000 digits; a NUL; CRLF line ends; trailing blank lines;
    bytes that are not UTF-8."""
    n, k = draw(st.one_of(st.just((8, 4)), st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min(8, n))))))
    # a systematic generator [I | R] has full rank, so the base file is valid
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, 2, (k, n - k))])
    u = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    counts = np.bincount((u @ G % 2).sum(axis=1), minlength=n + 1)
    lines = [f"{l} {c}" for l, c in enumerate(counts) if c]
    faults = {f for f in ("header", "count", "total", "nul", "crlf", "blank", "bytes")
              if draw(st.integers(0, 4)) == 4}
    header = [str(n), str(k)]
    if "header" in faults:
        kind = draw(st.sampled_from(["field", "k>n", "cap"]))
        if kind == "field":
            header[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_WEIGHT_HEADER_FIELDS))
        elif kind == "k>n":
            header[1] = str(n + draw(st.integers(1, 3)))
        else:
            header[0] = str(draw(st.sampled_from([65537, 10**5])))
    i = draw(st.integers(0, len(lines) - 1))
    l, c = lines[i].split()
    if "count" in faults:
        kind = draw(st.sampled_from(["missing", "three", "duplicate", "above", "negative"]))
        if kind == "missing":
            lines[i] = l
        elif kind == "three":
            lines[i] += " 0"
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "above":
            lines.insert(draw(st.integers(0, len(lines))), f"{n + draw(st.integers(1, 3))} 1")
        else:
            lines[i] = f"{l} -{c}"
    if "total" in faults:
        kind = draw(st.sampled_from(["a0", "sum", "digits"]))
        if kind == "a0":
            lines[0] = f"0 {draw(st.sampled_from([0, 2]))}"
        elif kind == "sum":
            lines[-1] = lines[-1].rsplit(" ", 1)[0] + f" {int(counts.max()) + 1}"
        else:
            lines[i] = f"{l} {draw(st.sampled_from('19')) * 5000}"
    blank = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=3))
    text = ("\r\n" if "crlf" in faults else "\n").join(
        [" ".join(header), *lines, *(blank if "blank" in faults else [])]) + "\n"
    if "nul" in faults:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\x00" + text[at:]
    data = text.encode()
    if "bytes" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]
    return data


class TestWeightsFileFuzz:
    """Weights-file contents through --weights, in process: every command
    that reads one ends in a known status, never in a traceback, and a
    refused bounds-sweep leaves no CSV behind."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=weights_files())
    def test_no_traceback(self, capsys, tmp_path, data):
        path, csv = tmp_path / "w.txt", tmp_path / "new.csv"
        path.write_bytes(data)
        for argv in (["code-info"], ["bounds-sweep", "--steps", "3", "--out", str(csv)],
                     ["simulate", "--code", "rm:1,3", "--eps", "0.2", "--blocks", "50"]):
            status = _fuzzed_status(capsys, [*argv, "--weights", str(path)])
            assert status != 1 or argv[0] == "simulate"  # exit 1 means a violated bound
            assert csv.exists() == (argv[0] == "bounds-sweep" and status == 0)
            csv.unlink(missing_ok=True)

    @pytest.mark.parametrize("data", [b"8 4\n0 1\n4 14\n8 1\xff\n",
                                      b"8 4\n0 1\n4 14\n8 " + b"1" * 5000 + b"\n"],
                             ids=["non-utf8", "5000-digit-count"])
    def test_refused_file_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "w.txt"
        path.write_bytes(data)
        assert _fuzzed_status(capsys, ["code-info", "--weights", str(path)]) == 2

    @pytest.mark.parametrize("data, message", [
        ("8 4\n0 1\n4 14\n8 " + "1" * 5000 + "\n",
         "line 4: an integer of 5000 digits is too long"),
        ("1" * 5000 + " 4\n0 1\n", "line 1: an integer of 5000 digits is too long"),
        ("8 4\n0 1\n4 " + "x" * 5000 + "\n",
         "line 3: expected 'weight count', got '4 " + "x" * 38 + "'... (5002 characters)"),
    ], ids=["long-count", "long-header", "long-garbage"])
    def test_refused_line_is_quoted_short(self, capsys, tmp_path, data, message):
        # the error line quotes at most QUOTED_CHARS characters of the bad line,
        # where it once echoed all 5,000
        path = tmp_path / "w.txt"
        path.write_text(data)
        code, out, err = run(capsys, "code-info", "--weights", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err) < 120


# How a fuzzed stream file's .len sidecar is made: absent, valid, 8 bits
# off either way, or not a bit length at all
_SIDECAR_KINDS = ["none", "valid", "+8", "-8", "negative", "garbage", "over-long", "empty",
                  "non-utf8"]


class TestStreamFileFuzz:
    """Stream files and their .len sidecars through extract, in process:
    every run ends in exit 0, with the in-memory extraction of the input
    in the output file, or in exit 2, with the old output and its sidecar
    as they were."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chunks=st.integers(0, 3), ragged=st.integers(0, 7),
           kind=st.sampled_from(_SIDECAR_KINDS), baseline=st.booleans(), data=st.data())
    def test_exit_0_or_2(self, capsys, tmp_path, chunks, ragged, kind, baseline, data):
        # chunks of 64 bits, 8 blocks of rm:1,3 or 32 pairs, so up to three
        # chunks and the ragged bytes cross several chunk boundaries
        size = 8 * chunks + ragged
        src, dst = tmp_path / "in.bits", tmp_path / "out.bits"
        sidecar, out_len = tmp_path / "in.bits.len", tmp_path / "out.bits.len"
        src.write_bytes(data.draw(st.binary(min_size=size, max_size=size), label="bytes"))
        nbits = data.draw(st.integers(max(0, 8 * size - 7), 8 * size), label="nbits")
        text = {"valid": str(nbits), "+8": str(nbits + 8), "-8": str(nbits - 8),
                "negative": "-3", "garbage": f"{nbits}x", "over-long": "1" * 5000,
                "empty": ""}
        sidecar.unlink(missing_ok=True)
        if kind == "non-utf8":
            sidecar.write_bytes(b"\xff\xfe\n")
        elif kind != "none":
            sidecar.write_text(text[kind] + "\n")
        dst.write_bytes(b"old")
        out_len.write_text("23\n")
        argv = ["extract", *(["--baseline", "von-neumann"] if baseline else ["--code", "rm:1,3"]),
                "--in", str(src), "--out", str(dst)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_chunk_blocks", lambda n: 64 // n)
            status = _fuzzed_status(capsys, argv)
        assert status == (0 if kind in ("none", "valid") else 2)
        if status == 0:
            stream = BitStream.read(src)
            want = (von_neumann(stream) if baseline
                    else linear_extract(rm_generator(1, 3).generator, stream))
            assert dst.read_bytes() == want.data.tobytes()
            assert (out_len.read_text() if out_len.exists() else None) == (
                f"{len(want)}\n" if len(want) % 8 else None)
        else:
            assert (dst.read_bytes(), out_len.read_text()) == (b"old", "23\n")


class TestCliSurface:
    """verify takes its weights from its own oracle walk and extract needs
    none, so only the weight-resolving subcommands take --weights and --cap."""

    OPTIONS = {
        "code-info": ["--code", "--matrix", "--weights", "--cap"],
        "bounds-sweep": ["--code", "--matrix", "--weights", "--cap", "--eps", "--eps-min",
                         "--eps-max", "--steps", "--h-variant", "--out", "--svg"],
        "extract": ["--code", "--matrix", "--baseline", "--in", "--out"],
        "verify": ["--code", "--matrix", "--eps", "--eps-min", "--eps-max", "--steps",
                   "--tol"],
        "simulate": ["--code", "--matrix", "--weights", "--cap", "--eps", "--blocks",
                     "--seed"],
    }

    def test_option_strings(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert got == self.OPTIONS

    def test_extract_usage_shows_required_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract", "-h"])
        usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
        assert "(--code CODE | --matrix MATRIX | --baseline {von-neumann})" in usage

    def test_readme_commands_parse(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().replace("\\\n", " ").splitlines()
        commands = [shlex.split(l)[1:] for l in lines if l.startswith("linext ")]
        assert len(commands) >= 7
        for argv in commands:
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--code", "rm:2,4", "--weights", "fake.txt", "--eps", "0.3"],
            ["verify", "--code", "rm:2,4", "--cap", "2", "--eps", "0.3"],
            ["extract", "--code", "rm:2,4", "--in", "x.bits", "--out", "y.bits", "--cap", "2"],
            ["simulate", "--code", "rm:2,4", "--eps", "0.3", "--marginal-only"],
        ],
        ids=["verify-weights", "verify-cap", "extract-cap", "simulate-marginal-only"],
    )
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, argv):
        # a valid [16,11] distribution that is not RM(2,4)'s (A_8 = 2047)
        (tmp_path / "fake.txt").write_text("16 11\n0 1\n8 2047\n")
        argv = [str(tmp_path / a) if a == "fake.txt" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_limited(cwd, argv):
    """The CLI in a child process under a 2 GiB address-space limit."""
    src = str(pathlib.Path(linext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "linext.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=120,
    )


class TestSizeGates:
    """Inputs that name sizes far past any cap. Each one used to reach an
    allocation of that size, so the CLI runs in a child process under a
    2 GiB address-space limit: a missing gate fails the test with a
    MemoryError traceback instead of exhausting the host."""

    @pytest.mark.parametrize(
        "argv, files, code",
        [
            (["code-info", "--code", "rm:1,34"], {}, 3),
            (["code-info", "--code", "rm:20,20"], {}, 3),
            (["code-info", "--code", "rm:8,16"], {}, 3),  # n at the cap, k·n over it
            (["code-info", "--weights", "w.txt"], {"w.txt": "2000000000 3\n0 1\n"}, 3),
            (["code-info", "--weights", "w.txt"], {"w.txt": "4 100000000000\n0 1\n"}, 2),
            (["code-info", "--matrix", "g.txt"], {"g.txt": "1 10000000000\n0101\n"}, 3),
            (["bounds-sweep", "--code", "rm:1,3", "--steps", "1000000000"], {}, 3),
            (["verify", "--code", "rm:1,3", "--steps", "1000000000"], {}, 3),
            (["simulate", "--code", "rm:1,3", "--eps", "0.1",
              "--blocks", "100000000000000000000"], {}, 3),
        ],
        ids=["rm1-34", "rm20-20", "rm8-16", "weights-n", "weights-k-over-n",
             "matrix-n", "sweep-steps", "verify-steps", "simulate-blocks"],
    )
    def test_rejected_before_allocation(self, tmp_path, argv, files, code):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        res = _run_limited(tmp_path, argv)
        assert (res.returncode, res.stdout) == (code, "")
        assert "Traceback" not in res.stderr and "error:" in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["code-info", "--code", "rm:9,11", "--cap", "5000"],
            ["bounds-sweep", "--code", "rm:3,6", "--cap", "100", "--steps", "3"],
            ["simulate", "--code", "rm:3,6", "--eps", "0.1", "--cap", str(ENUMERATION_CEILING + 1)],
        ],
        ids=["code-info", "bounds-sweep", "simulate"],
    )
    def test_cap_over_the_ceiling_is_refused_at_parse(self, tmp_path, argv):
        # under such a cap rm:9,11 (k = 2036) and rm:3,6 (k = 42) would be
        # enumerated directly, a walk that outlasts any user
        res = _run_limited(tmp_path, argv)
        assert (res.returncode, res.stdout) == (2, "")
        assert f"enumeration ceiling {ENUMERATION_CEILING}" in res.stderr

    @pytest.mark.parametrize("selector, code", [("rm:8,10", 0), ("rm:9,11", 3)])
    def test_sweep_dimension_past_double_range(self, tmp_path, selector, code):
        # the bounds take 2^k as a double: k = 1013 fits, k = 2036 overflows
        res = _run_limited(tmp_path, ["bounds-sweep", "--code", selector, "--steps", "3",
                                      "--out", "s.csv", "--svg", "s.svg"])
        assert res.returncode == code
        assert "Traceback" not in res.stderr
        wrote = (tmp_path / "s.csv").exists(), (tmp_path / "s.svg").exists()
        assert (bool(res.stdout), *wrote) == (code == 0,) * 3


# Runs the CLI with its weight walk, verify's eps grid or simulate's source
# split into parts, one of which fails as argv[1] says: "killed", part 1 of 2 sends itself
# SIGKILL, as the OOM killer would end it; "fork", the second os.fork of
# three parts fails, after the first child has started. The exit status is
# the CLI's, or 99 when a child is still there to be reaped afterwards.
PART_FAILURE = """
import errno, os, sys
from linext import cli, codes, pipeline

real_fork, forks, main_pid = os.fork, [], os.getpid()

def killed(real):
    def part(*args):
        if os.getpid() != main_pid:
            os.kill(os.getpid(), 9)
        return real(*args)
    return part

def fork():
    forks.append(1)
    if len(forks) == 2:
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    return real_fork()

if sys.argv[1] == "killed":
    codes.codeword_weights = killed(codes.codeword_weights)
    pipeline.stats_from_profile = killed(pipeline.stats_from_profile)
    pipeline._tally = killed(pipeline._tally)
    parts = 2
else:
    os.fork, parts = fork, 3
codes._part_count = lambda *args: parts
status = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(status)
print("a part is left", file=sys.stderr)
sys.exit(99)
"""


def _part_failure(tmp_path, how, *argv):
    src = str(pathlib.Path(linext.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", PART_FAILURE, how, *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )


class TestPartFailure:
    """A part of the weight walk, of verify's eps grid or of simulate's
    source that cannot be forked or does not exit 0 ends the command with
    exit 3 and an error line, never a traceback, and leaves no child
    process behind; the command prints nothing before every part has
    finished, so stdout stays empty."""

    @pytest.mark.parametrize("what, argv", [
        # RM(2,6) is [64,22]: its walk has 64 steps to split
        ("weight walk", ["code-info", "--code", "rm:2,6"]),
        ("eps grid", ["verify", "--code", "rm:2,4"]),
        # the weights come from a file, so no weight walk runs before the source
        ("source", ["simulate", "--code", "rm:2,4", "--weights", "w.txt", "--eps", "0.2",
                    "--blocks", str(3 * 65536 + 5)]),
    ], ids=["walk", "grid", "source"])
    @pytest.mark.parametrize("how, message", [("killed", "part 1/2 (pid "),
                                              ("fork", "part 2/3 could not fork")],
                             ids=["killed", "fork"])
    def test_exit_3_and_no_child(self, tmp_path, what, argv, how, message):
        (tmp_path / "w.txt").write_text(serialize_weights(enumerate_weights(rm_generator(2, 4))))
        res = _part_failure(tmp_path, how, *argv)
        assert (res.returncode, res.stdout) == (3, "")
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith(f"error: {what} ") and message in res.stderr
        if how == "killed":
            assert "exited with -9" in res.stderr


class TestSimulateParts:
    """simulate's source runs in parts (pipeline.simulated_stats); its
    stdout is the same whatever the split, histogram or byte counts only."""

    def test_source_over_the_cap_exits_before_any_fork(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the source cap"))
        monkeypatch.setattr(codes, "_part_count", lambda items, steps: 2)
        code, out, err = run(capsys, "simulate", "--code", "rm:3,5", "--eps", "0.2",
                             "--blocks", str(10**20))
        assert (code, out) == (3, "")
        assert "source bits, over the cap" in err

    @pytest.mark.parametrize("code, blocks", [("rm:2,4", 3 * 65536 + 5),
                                              ("rm:3,5", 3 * 32768 + 5)])
    @pytest.mark.parametrize("parts", [2, 3], ids=["two", "three"])
    def test_stdout_same_as_one_part(self, capsys, monkeypatch, code, blocks, parts):
        outs = []
        for count in (1, parts):
            monkeypatch.setattr(codes, "_part_count", lambda items, steps: count)
            outs.append(run(capsys, "simulate", "--code", code, "--eps", "0.2",
                            "--blocks", str(blocks), "--seed", "5"))
        assert outs[0][0] == 0 and outs[0][1].endswith("all bounds hold\n")
        assert outs[1] == outs[0]


class TestVerifyParts:
    """verify's eps grid runs in parts (pipeline.grid_stats); its stdout is
    the same whatever the split."""

    @pytest.fixture(params=["rm:2,4", "rm:1,5", "g25x18"])
    def source(self, request, tmp_path):
        if request.param != "g25x18":
            return ["--code", request.param]
        mfile = tmp_path / "g25x18.txt"
        mfile.write_text(serialize_matrix(random_full_rank(np.random.default_rng(25), 18, 25)))
        return ["--matrix", str(mfile)]

    @pytest.mark.parametrize("parts", [2, 3, 10], ids=["two", "three", "more-than-eps"])
    def test_stdout_same_as_one_part(self, capsys, monkeypatch, source, parts):
        # 7 eps: ten parts leave three ranges empty
        grid = ["--eps-min", "0.02", "--eps-max", "0.5", "--steps", "7"]
        outs = []
        for count in (1, parts):
            monkeypatch.setattr(codes, "_part_count", lambda items, steps: count)
            outs.append(run(capsys, "verify", *source, *grid))
        assert outs[0][0] == 0 and outs[0][1].endswith("all bounds hold\n")
        assert outs[1] == outs[0]

    def test_default_grid_at_k11_never_forks(self, capsys, monkeypatch):
        # RM(2,4) has k = 11: its 50 eps count 50 walk steps, fewer than
        # MIN_PART_STEPS, however many CPUs there are
        made, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        code, _, _ = run(capsys, "verify", "--code", "rm:2,4")
        assert (code, made) == (0, [])


@pytest.mark.parametrize("selector", ["rm:2,4", "rm:3,5"], ids=["full", "marginal"])
def test_simulate_memory_does_not_grow_with_blocks(capsys, selector):
    def peak(blocks):
        tracemalloc.start()
        try:
            code = main(["simulate", "--code", selector, "--eps", "0.2",
                         "--blocks", str(blocks)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    (code_small, small), (code_large, large) = peak(10**5), peak(4 * 10**6)
    assert code_small == code_large == 0
    # a second full chunk drawn while the first one's words are alive adds
    # about 1 MB; a materialized 4·10^6-block stream would add about 100 MB
    assert large - small < 4 << 20


def test_extract_memory_does_not_grow_with_input(capsys, tmp_path):
    rng = np.random.default_rng(9)
    for nbits in (1 << 23, 1 << 25):
        rng.integers(0, 256, nbits // 8, np.uint8).tofile(tmp_path / f"{nbits}.bits")

    def peak(argv, nbits):
        tracemalloc.start()
        try:
            code = main(["extract", *argv, "--in", str(tmp_path / f"{nbits}.bits"),
                         "--out", str(tmp_path / "out.bits")])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    for argv in (["--code", "rm:1,7"], ["--baseline", "von-neumann"]):
        (code_small, small), (code_large, large) = peak(argv, 1 << 23), peak(argv, 1 << 25)
        assert code_small == code_large == 0
        # one chunk is held whatever the file size; holding the whole 4 MB
        # input, as a read of the file at once does, adds at least 3 MB
        assert large - small < 2 << 20


# Stdout pinned byte for byte; any change to these reports is a contract change.
GOLDEN_VERIFY_RM13 = """\
verify RM(1,3) [8,4,4] tol=1e-12
eps                  check        exact                bound                status
0.05                 tvd-weight   1.09375048828e-05    8.75000390625e-05    PASS
0.05                 tvd-worst    1.09375048828e-05    0.0001               PASS
0.05                 pointwise    0.0625054687524      0.06250625           PASS
0.05                 coord-bias   6.25e-06             6.25e-06             PASS
0.05                 entropy      0.999999999901       0.99996878718        PASS
0.05                 min-entropy  0.999968442413       0.999963934427       PASS
0.1                  tvd-weight   0.00017500125        0.00140001           PASS
0.1                  tvd-worst    0.00017500125        0.0016               PASS
0.1                  pointwise    0.062587500625       0.0626               PASS
0.1                  coord-bias   0.0001               0.0001               PASS
0.1                  entropy      0.999999974763       0.999588093659       PASS
0.1                  min-entropy  0.999495406265       0.999423383154       PASS
0.15                 tvd-weight   0.000885969536133    0.00708775628906     PASS
0.15                 tvd-worst    0.000885969536133    0.0081               PASS
0.15                 pointwise    0.0629429847681      0.06300625           PASS
0.15                 coord-bias   0.00050625           0.00050625           PASS
0.15                 entropy      0.999999354249       0.998173826155       PASS
0.15                 min-entropy  0.997452649162       0.997090310938       PASS
0.2                  tvd-weight   0.00280032           0.02240256           PASS
0.2                  tvd-worst    0.00280032           0.0256               PASS
0.2                  pointwise    0.06390016           0.0641               PASS
0.2                  coord-bias   0.0016               0.0016               PASS
0.2                  entropy      0.999993577638       0.994809338137       PASS
0.2                  min-entropy  0.992009161556       0.990882958233       PASS
0.25                 tvd-weight   0.00683784484863     0.0547027587891      PASS
0.25                 tvd-worst    0.00683784484863     0.0625               PASS
0.25                 pointwise    0.0659189224243      0.06640625           PASS
0.25                 coord-bias   0.00390625           0.00390625           PASS
0.25                 entropy      0.999962062034       0.988427495317       PASS
0.25                 min-entropy  0.980790882694       0.978134289687       PASS
0.3                  tvd-weight   0.01418320125        0.11346561           PASS
0.3                  tvd-worst    0.01418320125        0.1296               PASS
0.3                  pointwise    0.069591600625       0.0706               PASS
0.3                  coord-bias   0.0081               0.0081               PASS
0.3                  entropy      0.999839437854       0.977866882224       PASS
0.3                  min-entropy  0.961235749905       0.95604700157        PASS
0.35                 tvd-weight   0.0262890859424      0.210312687539       PASS
0.35                 tvd-worst    0.0262890859424      0.2401               PASS
0.35                 pointwise    0.0756445429712      0.07750625           PASS
0.35                 coord-bias   0.01500625           0.01500625           PASS
0.35                 entropy      0.999462432006       0.961915480176       PASS
0.35                 min-entropy  0.93115504505        0.922385884426       PASS
0.4                  tvd-weight   0.04488192           0.35905536           PASS
0.4                  tvd-worst    0.04488192           0.4096               PASS
0.4                  pointwise    0.08494096           0.0881               PASS
0.4                  coord-bias   0.0256               0.0256               PASS
0.4                  entropy      0.998489971319       0.939347710875       PASS
0.4                  min-entropy  0.889348943926       0.876178542657       PASS
0.45                 tvd-weight   0.0719711265674      0.575769012539       PASS
0.45                 tvd-worst    0.0719711265674      0.6561               PASS
0.45                 pointwise    0.0984855632837      0.10350625           PASS
0.45                 coord-bias   0.04100625           0.04100625           PASS
0.45                 entropy      0.996302441838       0.908958788477       PASS
0.45                 min-entropy  0.835985982559       0.818052552632       PASS
all bounds hold
"""

GOLDEN_SIMULATE_RM24 = """\
simulate RM(2,4) [16,11] eps=0.2 seed=7
blocks=20000
delta=0.2619109375
tvd=0.13095546875
shannon=0.992973705393
min_entropy=0.893480069174
max_prob=0.0011
coord_biases=0.0067,0.0111,0.0019,0.0053,0.007,0.0023,0.007,0.0025,0.0082,0.0097,0.0064
samples=20000
tol_tvd-weight=0.377686798957
tol_tvd-worst=0.377686798957
tol_pointwise=0.00200102184241
tol_coord-bias=0.0316208755925
alpha=0.001
eps                  check        sampled              bound                status
0.2                  tvd-weight   0.2619109375         0.254945648647       PASS
0.2                  tvd-worst    0.2619109375         3.2768               PASS
0.2                  pointwise    0.0011               0.00208828125        PASS
0.2                  coord-bias   0.0111               0.0016               PASS
all bounds hold
"""

GOLDEN_SIMULATE_RM35 = """\
simulate RM(3,5) [32,26] eps=0.2 seed=7
blocks=20000
coord_biases=0.0002,0.0011,0.0025,0.0013,0.0075,0.0007,0.0087,0.0004,0.0001,0.0025,\
0.0084,0.0037,0.0032,0.0061,0.0078,0.0053,0.0001,0.007,0.004,0.0034,0.0022,0.0102,0.001,\
0.0002,0.0036,0.0131
samples=20000
tol_coord-bias=0.0329529953078
alpha=0.001
eps                  check        sampled              bound                status
0.2                  coord-bias   0.0131               0.0016               PASS
all bounds hold
"""

GOLDEN_CODE_INFO_RM24 = """\
label: RM(2,4)
n: 16
k: 11
d: 4
weights-via: enumerate
weight distribution (weight count):
  0 1
  4 140
  6 448
  8 870
  10 448
  12 140
  16 1
"""

GOLDEN_BOUNDS_SWEEP_RM24 = """\
# source: rm:2,4 (weights via enumerate)
# code: [16,11,4]
eps,bias_bound,pointwise_bound,tvd_weight,tvd_worst,hmin_bound,entropy_weight_raw,entropy_weight,entropy_worst_raw,entropy_worst,h_variant
0.05,6.25e-06,0.00049453125,0.000882034028159,0.0128,0.99833188092,0.999054277088,0.999054277088,0.988523591969,0.988523591969,standard
0.15,0.00050625,0.00099453125,0.0762035730427,1.0368,0.906699606877,0.940671543793,0.940671543793,0.390812942695,0.390812942695,standard
0.25,0.00390625,0.00439453125,0.669960737461,8,0.711824999869,0.581410718589,0.581410718589,0,0,standard
0.35,0.01500625,0.01549453125,3.13316259271,30.7328,0.546554279953,0,0,0,0,standard
0.45,0.04100625,0.04149453125,11.0860809073,83.9808,0.417357725457,0,0,0,0,standard
"""


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["verify", "--code", "rm:1,3", "--eps-min", "0.05", "--eps-max", "0.45",
              "--steps", "9"], GOLDEN_VERIFY_RM13),
            (["simulate", "--code", "rm:2,4", "--eps", "0.2", "--blocks", "20000",
              "--seed", "7"], GOLDEN_SIMULATE_RM24),
            (["simulate", "--code", "rm:3,5", "--eps", "0.2", "--blocks", "20000",
              "--seed", "7"], GOLDEN_SIMULATE_RM35),
            (["code-info", "--code", "rm:2,4"], GOLDEN_CODE_INFO_RM24),
            (["bounds-sweep", "--code", "rm:2,4", "--eps-min", "0.05", "--eps-max", "0.45",
              "--steps", "5"], GOLDEN_BOUNDS_SWEEP_RM24),
        ],
        ids=["verify", "simulate", "simulate-marginal", "code-info", "bounds-sweep"],
    )
    def test_stdout(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected
