import numpy as np
import pytest

from linext.bounds import CSV_HEADER
from linext.cli import main
from linext.codes import enumerate_weights, rm_generator, serialize_weights
from linext.gf2 import BitMatrix, serialize_matrix
from linext.pipeline import BiasedSourceSpec, BitStream, generate


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
        code, _, err = run(
            capsys, "code-info", "--code", "rm:1,3", "--matrix", str(mfile)
        )
        assert code == 2
        assert "exactly one" in err

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
        mfile.write_text(serialize_matrix(BitMatrix.identity(8)))
        src = tmp_path / "in.bits"
        dst = tmp_path / "out.bits"
        stream = generate(BiasedSourceSpec(0.0, seed=1), 4096)
        stream.write(src)
        code, out, _ = run(
            capsys, "extract", "--matrix", str(mfile),
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert BitStream.read(dst) == stream
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
        assert "simulate" in err
        assert out == ""

    def test_n32_feasible_when_k_fits(self, capsys):
        # n = 32, k = 16: the oracle's cost depends on k only
        code, out, _ = run(capsys, "verify", "--code", "rm:2,5", "--eps", "0.1")
        assert code == 0
        assert "[32,16,8]" in out and "all bounds hold" in out

    @pytest.mark.parametrize(
        "grid",
        [("--steps", "1"), ("--eps-min", "0.5", "--eps-max", "0.1"), ("--eps", "1.5")],
    )
    def test_bad_grid_rejected_before_output(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--code", "rm:1,3", *grid)
        assert code == 2
        assert out == ""
        assert "error:" in err


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
        assert "noise_floor=" in out_a and "samples=20000" in out_a

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
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:2,4", "--eps", "0.2",
            "--blocks", "20000", "--seed", "3", "--marginal-only",
        )
        assert code == 0
        assert "coord_bias_max" in out and "PASS" in out

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_nonpositive_blocks_is_usage_error(self, capsys, blocks):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--code", "rm:1,3", "--eps", "0.2", "--blocks", blocks])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--blocks" in captured.err

    def test_binning_infeasible_suggests_marginal_flag(self, capsys):
        # k = 26 cannot be histogrammed; the error names the fallback flag
        code, _, err = run(
            capsys, "simulate", "--code", "rm:3,5", "--eps", "0.1",
            "--blocks", "100", "--seed", "1",
        )
        assert code == 3
        assert "--marginal-only" in err


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

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
