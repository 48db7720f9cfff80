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

    def test_bad_svg_path_prints_nothing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bounds-sweep", "--code", "rm:1,3", "--eps", "0.2",
            "--out", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "no" / "a.svg"),
        )
        assert code == 2
        assert out == ""

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

    def test_marginal_only_infeasible_weights_is_checked_or_exits_3(self, capsys, tmp_path):
        # an infeasible weight distribution means no bound to check: exit 3
        argv = ["simulate", "--code", "rm:2,4", "--eps", "0.2", "--blocks", "20000",
                "--seed", "3", "--cap", "2", "--marginal-only"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "--weights FILE" in err
        path = tmp_path / "rm24.txt"
        path.write_text(serialize_weights(enumerate_weights(rm_generator(2, 4))))
        code, out, _ = run(capsys, *argv, "--weights", str(path))
        assert code == 0
        assert "coord-bias <= eps^d + tol: PASS" in out

    @pytest.mark.parametrize("seed, eps", [("5", "0.1"), ("3", "0.6"), ("4", "0.3")])
    def test_coord_bias_max_over_k_is_not_a_false_alarm(self, capsys, seed, eps):
        # these runs exceeded the per-coordinate 3/sqrt(N) tolerance by chance
        # (seed 5: stat 0.00888 > 0.0067); the union-bounded tolerance holds
        code, out, _ = run(
            capsys, "simulate", "--code", "rm:2,5", "--eps", eps,
            "--blocks", "200000", "--seed", seed,
        )
        assert code == 0
        assert "tol=0.0101850337171 alpha=0.001 PASS" in out

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["code-info", "--code", "rm:3,6", "--cap", "20"],
            ["simulate", "--code", "rm:3,5", "--eps", "0.1", "--blocks", "100"],
            ["simulate", "--code", "rm:2,4", "--eps", "0.2", "--cap", "2"],
            ["bounds-sweep", "--code", "rm:3,6", "--cap", "20", "--eps", "0.1"],
            ["verify", "--code", "rm:2,4", "--cap", "2", "--eps", "0.1"],
        ],
    )
    def test_infeasible_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "error:" in err

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


# Stdout pinned byte for byte; any change to these reports is a contract change.
GOLDEN_VERIFY_RM13 = """\
verify RM(1,3) [8,4,4] tol=1e-12
eps         check        exact            bound            status
0.05        tvd-weight   1.09375048828e-05  8.75000390625e-05  PASS
0.05        tvd-worst    1.09375048828e-05  0.0001           PASS
0.05        pointwise    0.0625054687524  0.06250625       PASS
0.05        coord-bias   6.25e-06         6.25e-06         PASS
0.05        entropy      0.999999999901   0.99996878718    PASS
0.05        min-entropy  0.999968442413   0.999963934427   PASS
0.1         tvd-weight   0.00017500125    0.00140001       PASS
0.1         tvd-worst    0.00017500125    0.0016           PASS
0.1         pointwise    0.062587500625   0.0626           PASS
0.1         coord-bias   0.0001           0.0001           PASS
0.1         entropy      0.999999974763   0.999588093659   PASS
0.1         min-entropy  0.999495406265   0.999423383154   PASS
0.15        tvd-weight   0.000885969536133  0.00708775628906  PASS
0.15        tvd-worst    0.000885969536133  0.0081           PASS
0.15        pointwise    0.0629429847681  0.06300625       PASS
0.15        coord-bias   0.00050625       0.00050625       PASS
0.15        entropy      0.999999354249   0.998173826155   PASS
0.15        min-entropy  0.997452649162   0.997090310938   PASS
0.2         tvd-weight   0.00280032       0.02240256       PASS
0.2         tvd-worst    0.00280032       0.0256           PASS
0.2         pointwise    0.06390016       0.0641           PASS
0.2         coord-bias   0.0016           0.0016           PASS
0.2         entropy      0.999993577638   0.994809338137   PASS
0.2         min-entropy  0.992009161556   0.990882958233   PASS
0.25        tvd-weight   0.00683784484863  0.0547027587891  PASS
0.25        tvd-worst    0.00683784484863  0.0625           PASS
0.25        pointwise    0.0659189224243  0.06640625       PASS
0.25        coord-bias   0.00390625       0.00390625       PASS
0.25        entropy      0.999962062034   0.988427495317   PASS
0.25        min-entropy  0.980790882694   0.978134289687   PASS
0.3         tvd-weight   0.01418320125    0.11346561       PASS
0.3         tvd-worst    0.01418320125    0.1296           PASS
0.3         pointwise    0.069591600625   0.0706           PASS
0.3         coord-bias   0.0081           0.0081           PASS
0.3         entropy      0.999839437854   0.977866882224   PASS
0.3         min-entropy  0.961235749905   0.95604700157    PASS
0.35        tvd-weight   0.0262890859424  0.210312687539   PASS
0.35        tvd-worst    0.0262890859424  0.2401           PASS
0.35        pointwise    0.0756445429712  0.07750625       PASS
0.35        coord-bias   0.01500625       0.01500625       PASS
0.35        entropy      0.999462432006   0.961915480176   PASS
0.35        min-entropy  0.93115504505    0.922385884426   PASS
0.4         tvd-weight   0.04488192       0.35905536       PASS
0.4         tvd-worst    0.04488192       0.4096           PASS
0.4         pointwise    0.08494096       0.0881           PASS
0.4         coord-bias   0.0256           0.0256           PASS
0.4         entropy      0.998489971319   0.939347710875   PASS
0.4         min-entropy  0.889348943926   0.876178542657   PASS
0.45        tvd-weight   0.0719711265674  0.575769012539   PASS
0.45        tvd-worst    0.0719711265674  0.6561           PASS
0.45        pointwise    0.0984855632837  0.10350625       PASS
0.45        coord-bias   0.04100625       0.04100625       PASS
0.45        entropy      0.996302441838   0.908958788477   PASS
0.45        min-entropy  0.835985982559   0.818052552632   PASS
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
noise_floor=0.32
tvd <= weight-bound/2 + 3nf: stat=0.13095546875 bound=0.127472824323 tol=0.96 PASS
tvd <= worst-bound/2 + 3nf: stat=0.13095546875 bound=1.6384 tol=0.96 PASS
max_prob <= pointwise + tol: stat=0.0011 bound=0.00208828125 tol=0.00219863238742 PASS
coord_bias <= eps^d + tol: stat=0.0111 bound=0.0016 tol=0.0316208755925 alpha=0.001 PASS
min_entropy >= lacharme - tol: stat=0.893480069174 bound=0.80940620521 tol=0.262145127443 PASS
"""

GOLDEN_SIMULATE_RM24_MARGINAL = """\
simulate RM(2,4) [16,11] eps=0.2 seed=7
blocks=20000
coord_bias_max=0.0111
coord_tol=0.0316208755925 alpha=0.001
coord-bias <= eps^d + tol: PASS
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


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["verify", "--code", "rm:1,3", "--eps-min", "0.05", "--eps-max", "0.45",
              "--steps", "9"], GOLDEN_VERIFY_RM13),
            (["simulate", "--code", "rm:2,4", "--eps", "0.2", "--blocks", "20000",
              "--seed", "7"], GOLDEN_SIMULATE_RM24),
            (["simulate", "--code", "rm:2,4", "--eps", "0.2", "--blocks", "20000",
              "--seed", "7", "--marginal-only"], GOLDEN_SIMULATE_RM24_MARGINAL),
            (["code-info", "--code", "rm:2,4"], GOLDEN_CODE_INFO_RM24),
        ],
        ids=["verify", "simulate", "simulate-marginal", "code-info"],
    )
    def test_stdout(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected
