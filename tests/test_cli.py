"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qwalk1d
from qwalk1d import WalkSpec, derive_effective, max_alpha, normalized_second
from qwalk1d import cli
from qwalk1d.cli import main
from qwalk1d.moments import MAX_CURVE_POINTS, moment_curves

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestEvolve:
    def test_hadamard_two_steps_direct(self, capsys):
        code, out, _ = run_cli(capsys, ["evolve", "--hadamard", "--t", "2", "--method", "direct"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "re_psi0", "im_psi0", "re_psi1", "im_psi1"]
        probs = {}
        for row in rows:
            x = int(row[0])
            amp2 = sum(float(v) ** 2 for v in row[1:])
            probs[x] = amp2
        assert abs(probs[-2] - 0.25) < 1e-12
        assert abs(probs[0] - 0.5) < 1e-12
        assert abs(probs[2] - 0.25) < 1e-12

    def test_unit_coin_concentrates(self, capsys):
        code, out, _ = run_cli(capsys, ["evolve", "--a-abs", "1", "--t", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == [-3, -1, 1, 3]
        nonzero = [r for r in rows if any(abs(float(v)) > 1e-14 for v in r[1:])]
        assert len(nonzero) == 1
        assert int(nonzero[0][0]) == 3
        assert abs(float(nonzero[0][1]) - 1.0) < 1e-14

    def test_methods_agree(self, capsys):
        args = ["--a-abs", "0.6", "--b-arg", "0.4", "--k", "0.2",
                "--c0-abs", "0.8", "--c1-arg", "-0.7", "--t", "9"]
        code1, out1, _ = run_cli(capsys, ["evolve", *args, "--method", "direct"])
        code2, out2, _ = run_cli(capsys, ["evolve", *args, "--method", "closed"])
        assert code1 == code2 == 0
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1, rows2):
            assert r1[0] == r2[0]
            for v1, v2 in zip(r1[1:], r2[1:]):
                assert abs(float(v1) - float(v2)) < 1e-11

    def test_dense_includes_parity_zeros(self, capsys):
        _, sparse, _ = run_cli(capsys, ["evolve", "--hadamard", "--t", "4"])
        _, dense, _ = run_cli(capsys, ["evolve", "--hadamard", "--t", "4", "--dense"])
        _, rows_sparse = parse_csv(sparse)
        _, rows_dense = parse_csv(dense)
        assert len(rows_sparse) == 5
        assert len(rows_dense) == 9
        odd_rows = [r for r in rows_dense if int(r[0]) % 2 != 0]
        assert all(float(v) == 0.0 for r in odd_rows for v in r[1:])

    def test_output_file_is_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "out" / "field.csv"
        code, out, _ = run_cli(
            capsys, ["evolve", "--hadamard", "--t", "2", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.exists()
        assert target.read_text().startswith("x,re_psi0")
        assert not list(target.parent.glob("*.tmp"))

    def test_output_goes_through_a_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "real.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(tmp_path / "made" / "new.csv")
        for path in (link, dangling):
            argv = ["evolve", "--hadamard", "--t", "2", "--output", str(path)]
            code, _, _ = run_cli(capsys, argv)
            assert code == 0
            assert path.is_symlink()
            assert path.read_text().startswith("x,re_psi0")
        assert target.read_text().startswith("x,re_psi0")
        assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_output_is_written_into_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        # The reader opens first, so the CLI's open of the FIFO cannot block for long.
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, ["evolve", "--hadamard", "--t", "2", "--output", str(fifo)])
        reader.join(timeout=10)
        assert code == 0
        assert received and received[0].startswith("x,re_psi0")
        assert fifo.is_fifo()

    def test_spec_file_input(self, capsys, tmp_path):
        spec_file = tmp_path / "walk.json"
        spec_file.write_text(WalkSpec.hadamard().to_json())
        _, from_file, _ = run_cli(capsys, ["evolve", "--spec", str(spec_file), "--t", "3"])
        _, preset, _ = run_cli(capsys, ["evolve", "--hadamard", "--t", "3"])
        # b is rederived from |a| on load, so agreement is to rounding only.
        _, rows1 = parse_csv(from_file)
        _, rows2 = parse_csv(preset)
        assert [r[0] for r in rows1] == [r[0] for r in rows2]
        for r1, r2 in zip(rows1, rows2):
            for v1, v2 in zip(r1[1:], r2[1:]):
                assert abs(float(v1) - float(v2)) < 1e-12

    def test_renormalize_flag(self, capsys):
        argv = ["evolve", "--a-abs", "0.7071", "--t", "1"]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0  # b is derived, so the coin is normalized either way
        code, _, _ = run_cli(capsys, [*argv, "--renormalize"])
        assert code == 0


class TestDensity:
    def test_columns_and_mass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["density", "--a-abs", "0.6", "--nu", "0.2", "--alpha", "0.1", "--t", "20"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "rho", "rho0", "rho1", "rho_even", "rho_odd"]
        assert len(rows) == 21
        mass = sum(float(r[1]) for r in rows)
        assert abs(mass - 1.0) < 1e-12
        for r in rows:
            assert abs(float(r[1]) - float(r[2]) - float(r[3])) < 1e-12
            assert abs(float(r[1]) - float(r[4]) - float(r[5])) < 1e-12

    def test_paper_signs_flag(self, capsys):
        base = ["density", "--a-abs", "1", "--t", "1"]
        code, out, _ = run_cli(capsys, base)
        assert code == 0
        rows = {int(r[0]): r for r in parse_csv(out)[1]}
        assert abs(float(rows[1][1]) - 1.0) < 1e-12
        code, out, _ = run_cli(capsys, [*base, "--paper-signs"])
        assert code == 0
        rows = {int(r[0]): r for r in parse_csv(out)[1]}
        assert abs(float(rows[1][1]) - 2.0) < 1e-12
        assert abs(float(rows[-1][1]) + 1.0) < 1e-12


class TestMoments:
    def test_single_time(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--a-abs", "0.6", "--nu", "0.5", "--t", "4"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "abs_a", "nu", "alpha", "mean",
                          "second", "variance", "normalized_second"]
        assert len(rows) == 1
        row = rows[0]
        assert int(row[0]) == 4
        var = float(row[5]) - float(row[4]) ** 2
        assert abs(float(row[6]) - var) < 1e-12

    def test_all_times(self, capsys):
        code, out, _ = run_cli(
            capsys, ["moments", "--hadamard", "--t", "6", "--all-times"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert abs(float(rows[3][5]) - 5.0) < 1e-12

    def test_all_times_edge_times(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--hadamard", "--t", "0", "--all-times"])
        assert code == 0
        assert out == "t,abs_a,nu,alpha,mean,second,variance,normalized_second\n"
        code, out, err = run_cli(capsys, ["moments", "--hadamard", "--t", "-1", "--all-times"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestPoly:
    def test_exact_row_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["poly", "--t", "6", "--k", "0", "--at", "0.5", "--exact-at", "1/2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == 6 and payload["k"] == 0
        assert payload["coeffs"] == [20, -30, 12, -1]
        assert payload["powers"] == [6, 4, 2, 0]
        assert abs(payload["value"] - 7 / 16) < 1e-15
        assert payload["exact_value"] == "7/16"

    def test_parity_violation_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, ["poly", "--t", "4", "--k", "1"])
        assert code == 2
        assert "error" in err


class TestFit:
    def test_round_trip_through_files(self, capsys, tmp_path):
        hist_file = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            capsys,
            ["density", "--a-abs", "0.6", "--nu", "0.25", "--alpha", "0.1",
             "--t", "30", "--output", str(hist_file)],
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, ["fit", "--input", str(hist_file), "--t", "30"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["abs_a_hat"] - 0.6) < 1e-3
        assert abs(payload["nu_hat"] - 0.25) < 1e-6
        assert abs(payload["alpha_hat"] - 0.1) < 1e-6
        assert payload["feasible"] is True

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_counted_histograms_round_trip(self, capsys, tmp_path, seed):
        rng = np.random.default_rng(seed)
        abs_a, nu = rng.uniform(0.1, 0.95), rng.uniform(-0.45, 0.45)
        alpha = rng.uniform(-0.9, 0.9) * max_alpha(abs_a, nu)
        t = str(rng.integers(10, 90))
        code, out, _ = run_cli(capsys, ["density", "--a-abs", repr(abs_a), "--nu", repr(nu),
                                        "--alpha", repr(alpha), "--t", t])
        assert code == 0
        _, rows = parse_csv(out)
        hist_file = tmp_path / "hist.csv"
        hist_file.write_text(
            "x,count\n" + "".join(f"{x},{round(float(rho) * 20000)}\n" for x, rho, *_ in rows)
        )
        for weighting in ("none", "poisson"):
            code, out, err = run_cli(
                capsys, ["fit", "--input", str(hist_file), "--t", t, "--weighting", weighting]
            )
            assert code == 0, err
            payload = json.loads(out)
            assert type(payload["feasible"]) is bool
            assert abs(payload["abs_a_hat"] - abs_a) < 0.05

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_count_is_bad_input(self, capsys, tmp_path, count):
        hist_file = tmp_path / "hist.csv"
        hist_file.write_text(f"x,count\n-10,3\n0,{count}\n10,5\n")
        code, out, err = run_cli(capsys, ["fit", "--input", str(hist_file), "--t", "10"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_missing_file_is_bad_input(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["fit", "--input", str(tmp_path / "nope.csv"), "--t", "5"]
        )
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        argv = ["verify", "--tmax", "8", "--n-specs", "3", "--seed", "7"]
        code1, out1, err1 = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert json.loads(out1)["passed"]
        assert out1 == out2
        assert err1.startswith("elapsed_seconds: ") and err1.count("\n") == 1

    def test_negative_spec_count_is_bad_input(self, capsys):
        # Decision: a negative count is bad input, not "only the fixed specs";
        # so is --tmax 0, whose empty time ladder would compare nothing.
        for argv in (["verify", "--n-specs", "-1"], ["verify", "--tmax", "0"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_failure_exit_code(self, capsys, monkeypatch):
        import qwalk1d.cli as cli

        monkeypatch.setattr(
            cli, "run_verification",
            lambda **kw: {"passed": False, "checks": [], "documented_divergences": []},
        )
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 1
        assert json.loads(out)["passed"] is False


def fmt(value):
    """The per-value format the CSV writer must reproduce byte for byte."""
    return f"{float(value):.17g}"


class TestWriter:
    def test_all_times_above_the_chunk_size(self, capsys):
        t_max = 2 * cli._CHUNK_ROWS + 3
        argv = ["moments", "--a-abs", "0.6", "--nu", "0.1", "--alpha", "0.2",
                "--t", str(t_max), "--all-times"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        eff = derive_effective(WalkSpec.from_symmetry(0.6, 0.1, 0.2))
        mean, second = moment_curves(eff.abs_a, eff.nu, eff.alpha, t_max)
        walk = f"{fmt(eff.abs_a)},{fmt(eff.nu)},{fmt(eff.alpha)}"
        expected = ["t,abs_a,nu,alpha,mean,second,variance,normalized_second"] + [
            f"{t},{walk},{fmt(m)},{fmt(s)},{fmt(s - m * m)},{fmt(s / float(t * t))}"
            for t, m, s in zip(range(1, t_max + 1), mean.tolist(), second.tolist())
        ]
        assert out == "\n".join(expected) + "\n"

    def test_variance_sweep_rows(self, capsys):
        t_max, nu = cli._CHUNK_ROWS + 1, 0.3
        argv = ["sweep", "--kind", "variance", "--t", str(t_max), "--grid", "3",
                "--nu", str(nu), "--alpha", "0"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        grid = np.linspace(0.0, 1.0, 3)
        mean, second = moment_curves(grid, nu, 0.0, t_max)
        t2 = np.arange(1, t_max + 1, dtype=float)[:, None] ** 2
        curves = (second - mean * mean) / t2
        expected = ["t,abs_a,nu,alpha,normalized_variance"] + [
            f"{t},{fmt(a)},{fmt(nu)},{fmt(0.0)},{fmt(v)}"
            for a, curve in zip(grid, curves.T.tolist()) for t, v in enumerate(curve, start=1)
        ]
        assert out == "\n".join(expected) + "\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("argv", [
        ["evolve", "--a-abs", "0.6", "--t", "5000", "--dense"],
        ["moments", "--hadamard", "--t", "9000", "--all-times"],
    ])
    def test_stdout_file_and_fifo_get_the_same_bytes(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        target, fifo = tmp_path / "out.csv", tmp_path / "pipe"
        assert run_cli(capsys, argv + ["--output", str(target)])[0] == 0
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(capsys, argv + ["--output", str(fifo)])[0] == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert out.encode() == target.read_bytes() == received[0]

    def test_all_times_streams_its_rows(self, tmp_path):
        target = tmp_path / "m.csv"
        argv = ["moments", "--a-abs", "0.6", "--nu", "0.1", "--alpha", "0.2",
                "--t", "50000", "--all-times", "--output", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * target.stat().st_size


class TestSweep:
    def test_moments_grid_hits_ballistic_edge(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "moments", "--t", "5", "--grid", "5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "abs_a", "normalized_second"]
        assert len(rows) == 25
        edge = [r for r in rows if float(r[1]) == 1.0]
        assert len(edge) == 5
        assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in edge)

    def test_variance_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--kind", "variance", "--t", "4", "--grid", "3",
             "--nu", "0.5", "--alpha", "0"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            if float(r[1]) in (0.0, 1.0):
                assert abs(float(r[4])) < 1e-10

    def test_density_sweep_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--kind", "density", "--t", "10",
             "--nu-list", "0,0.5", "--a-abs", "0.7071067811865476"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["nu", "x", "rho"]
        nus = {float(r[0]) for r in rows}
        assert nus == {0.0, 0.5}
        for nu in nus:
            mass = sum(float(r[2]) for r in rows if float(r[0]) == nu)
            assert abs(mass - 1.0) < 1e-12

    def test_batched_sweep_matches_per_abs_a(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "moments", "--t", "40", "--grid", "6"])
        assert code == 0
        _, rows = parse_csv(out)
        expected = [(t, abs_a) for abs_a in np.linspace(0.0, 1.0, 6) for t in range(1, 41)]
        assert [(int(r[0]), float(r[1])) for r in rows] == expected
        for (t, abs_a), row in zip(expected, rows):
            # Closed forms vs per-t sums: |d second| <= 1e-12 t^2.
            assert abs(float(row[2]) - normalized_second(float(abs_a), t)) <= 1e-12

    @pytest.mark.parametrize("kind", ["moments", "variance"])
    def test_time_zero_prints_the_header_only(self, capsys, kind):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", kind, "--t", "0", "--grid", "3"])
        assert code == 0
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["moments", "variance"])
    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_empty_grid_is_bad_input(self, capsys, kind, grid):
        # Decision: a grid without points is bad input, not a header-only CSV.
        code, out, err = run_cli(capsys, ["sweep", "--kind", kind, "--t", "5", "--grid", grid])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["moments", "variance"])
    def test_negative_time_is_bad_input(self, capsys, kind):
        code, out, err = run_cli(capsys, ["sweep", "--kind", kind, "--t", "-1", "--grid", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestNegativeFloatFlags:
    @pytest.mark.parametrize("spaced, joined", [
        ("moments --a-abs 0.5 --nu -1e-05 --alpha 0 --t 3",
         "moments --a-abs 0.5 --nu=-1e-05 --alpha 0 --t 3"),
        ("moments --a-abs 0.5 --nu 0.1 --alpha -2.5E-3 --t 9 --all-times",
         "moments --a-abs 0.5 --nu 0.1 --alpha=-2.5E-3 --t 9 --all-times"),
        ("moments --hadamard --k -1e-3 --t 4",
         "moments --hadamard --k=-1e-3 --t 4"),
        ("density --a-abs 0.6 --a-arg -2.5e-1 --c0-arg -1.e-2 --b-arg -3 --t 5",
         "density --a-abs 0.6 --a-arg=-2.5e-1 --c0-arg=-1.e-2 --b-arg=-3 --t 5"),
        ("sweep --kind variance --nu -3e-01 --alpha -0e0 --t 4 --grid 3",
         "sweep --kind variance --nu=-3e-01 --alpha=-0e0 --t 4 --grid 3"),
    ], ids=["moments-nu", "all-times-alpha", "moments-k", "density-phases", "sweep"])
    def test_space_form_matches_equals_form(self, capsys, spaced, joined):
        code, out, err = run_cli(capsys, spaced.split())
        assert code == 0, err
        assert (0, out) == run_cli(capsys, joined.split())[:2]

    def test_non_finite_value_is_bad_input(self, capsys):
        code, out, err = run_cli(capsys, ["moments", "--hadamard", "--k", "-inf", "--t", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestExitCodes:
    def test_bad_coin_weight(self, capsys):
        code, _, err = run_cli(capsys, ["evolve", "--a-abs", "2", "--t", "1"])
        assert code == 2
        assert "error" in err

    def test_no_spec_given(self, capsys):
        code, _, err = run_cli(capsys, ["evolve", "--t", "1"])
        assert code == 2
        assert "error" in err

    def test_resource_ceiling(self, capsys):
        code, _, err = run_cli(
            capsys, ["evolve", "--hadamard", "--t", "200000", "--method", "direct"]
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--hadamard", "--t", str(MAX_CURVE_POINTS + 1), "--all-times"],
        ["sweep", "--kind", "variance", "--t", str(MAX_CURVE_POINTS // 100), "--grid", "101"],
    ])
    def test_all_times_ceiling(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_of_memory_is_a_resource_error(self, capsys, monkeypatch):
        import qwalk1d.cli as cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "moment_curves", exhausted)
        code, out, err = run_cli(capsys, ["moments", "--hadamard", "--t", "5", "--all-times"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_non_finite_phase(self, capsys):
        code, out, err = run_cli(capsys, ["evolve", "--hadamard", "--t", "3", "--k", "nan"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "not a JSON object"),
        ("{}", "a_abs"),
        ('{"a_abs": 0.5}', "c0_abs"),
        ('{"a_abs": null, "c0_abs": 1}', "a_abs = None is not a number"),
    ])
    def test_bad_spec_file(self, capsys, tmp_path, text, problem):
        spec_file = tmp_path / "walk.json"
        spec_file.write_text(text)
        code, out, err = run_cli(capsys, ["evolve", "--spec", str(spec_file), "--t", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: walk spec") and err.count("\n") == 1
        assert problem in err

    def test_zero_denominator(self, capsys):
        code, out, err = run_cli(
            capsys, ["poly", "--t", "4", "--k", "0", "--exact-at", "1/0"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_infeasible_symmetry_triple(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["density", "--a-abs", "0.9", "--nu", "0.5", "--alpha", "0.4", "--t", "2"],
        )
        assert code == 2
        assert "error" in err


class TestParserReuse:
    ARGVS = [
        ["moments", "--a-abs", "0.5", "--nu", "-1e-05", "--t", "7"],
        ["density", "--hadamard", "--t", "4", "--dense"],
        ["moments", "--a-abs", "0.3", "--c0-abs", "0.6", "--t", "5", "--all-times"],
        ["sweep", "--kind", "variance", "--t", "3", "--grid", "3"],
        ["evolve", "--a-abs", "2", "--t", "1"],
    ]

    def test_in_process_calls_match_fresh_processes(self, capsys):
        src = str(Path(qwalk1d.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        fresh = [
            subprocess.run([sys.executable, "-m", "qwalk1d", *argv], capture_output=True,
                           text=True, env=env, timeout=120)
            for argv in self.ARGVS
        ]
        expected = [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert expected[-1][0] == 2
        for order in (range(len(self.ARGVS)), reversed(range(len(self.ARGVS)))):
            for i in order:
                assert run_cli(capsys, self.ARGVS[i]) == expected[i]
