"""CLI tests: determinism, golden files, serialization, exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entransfer
from entransfer import cli, errors
from entransfer import events as events_module
from entransfer.amplitudes import SystemParams
from entransfer.cli import COMMANDS, FIGURES, build_parser, emit, main
from entransfer.errors import ConfigError
from entransfer.events import PAIR_LABELS, EventRecord

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# the error columns of validate at every point of the benchmark's oracle
# workload, as the benchmark records them
with open(os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "oracle_reference.json")) as _fh:
    BENCH_ORACLE = json.load(_fh)

# every closed-form subcommand and series preset, and the coupling and state
# flags they no longer take: --geff and --ratio give both
CLOSED_FORM = {**{name: [name, "--geff", "5"]
                  for name in ("amplitudes", "concurrence", "events", "window")},
               **{f"figure{n}": ["figure", str(n)] for n in (3, 4, 5, 6, 8, 9, 10)}}
REMOVED = ["--g", "--omega", "--alpha", "--beta", "--delta-detuning"]

# each subcommand and preset at a small size, every one exiting 0
SMALL = {
    "amplitudes": ["--geff", "5", "--t-max", "1", "--steps", "10"],
    "concurrence": ["--geff", "5", "--ratio", "1.5", "--t-max", "1", "--steps", "10",
                    "--pairs", ",".join(PAIR_LABELS)],
    "events": ["--geff", "5", "--ratio", "1.5", "--t-max", "3"],
    "window": ["--geff", "0.1", "--ratio", "1.9"],        # no window: NaN cells
    "phase-diagram": ["--gamma-steps", "2", "--ratio-steps", "3"],
    "validate": ["--n-modes", "200", "--bandwidth", "100", "--t-max", "2"],
}
OUTPUTS = {**{name: [name] + SMALL[name] for name in COMMANDS},
           **{f"figure{n}": ["figure", str(n)]
              + (SMALL["phase-diagram"] if n == 7 else ["--steps", "4"]) for n in FIGURES}}
# the smallest tables beside OUTPUTS (whose window is the 0,nan,nan,nan row)
EDGES = {
    "events-no-rows": ["events", "--geff", "5", "--ratio", "1", "--t-max", "1",
                       "--pairs", "a1a2"],
    "phase-diagram-1x1": ["phase-diagram", "--gamma-steps", "1", "--ratio-steps", "1"],
    "amplitudes-one-interval": ["amplitudes", "--geff", "5", "--steps", "1"],
}


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    status = main(list(argv) + ["--out", str(out)])
    return status, out


def emitted(cell):
    """A JSON-decoded cell as ``emit`` writes it in CSV."""
    if isinstance(cell, (str, int)):
        return str(cell)
    return "%.12g" % cell


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["figure", "3", "--steps", "80", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("number", [3, 4, 5, 6, 8, 9, 10])
    def test_figure_golden(self, tmp_path, number):
        status, out = run(tmp_path, "figure", str(number), "--steps", "120")
        assert status == 0
        golden = os.path.join(GOLDEN_DIR, f"figure{number}.csv")
        assert out.read_bytes() == Path(golden).read_bytes()

    def test_phase_diagram_golden(self, tmp_path):
        status, out = run(tmp_path, "figure", "7",
                          "--gamma-steps", "6", "--ratio-steps", "7")
        assert status == 0
        golden = os.path.join(GOLDEN_DIR, "figure7.csv")
        assert out.read_bytes() == Path(golden).read_bytes()

    def test_events_golden(self, tmp_path):
        status, out = run(tmp_path, "events", "--ratio", "1.5", "--geff", "5",
                          "--t-max", "3")
        assert status == 0
        golden = os.path.join(GOLDEN_DIR, "events_strong.csv")
        assert out.read_bytes() == Path(golden).read_bytes()


class TestJson:
    def test_round_trip_events(self, tmp_path):
        status, out = run(tmp_path, "events", "--ratio", "1.5", "--geff", "5",
                          "--t-max", "3", "--format", "json")
        assert status == 0
        data = json.loads(out.read_text())
        assert data["columns"] == ["kind", "pair", "time"]
        records = [EventRecord(kind=k, pair=p, time=t)
                   for k, p, t in data["records"]]
        assert records and all(isinstance(r.time, float) for r in records)
        births = [r for r in records if r.pair == "r1r2" and r.kind == "ESB"]
        # detected root sits ~8% above the leading-order 2 ln(1.5) estimate
        assert len(births) == 1
        assert abs(births[0].time - 2.0 * np.log(1.5)) < 0.1 * 2.0 * np.log(1.5)

    def test_round_trip_series(self, tmp_path):
        status, out = run(tmp_path, "concurrence", "--geff", "5",
                          "--ratio", "1.5", "--t-max", "2", "--steps", "40",
                          "--format", "json")
        assert status == 0
        data = json.loads(out.read_text())
        assert set(data) == {"config", "columns", "records"}
        assert data["columns"][0] == "t"
        assert len(data["records"]) == 41
        assert all(len(row) == len(data["columns"]) for row in data["records"])
        assert data["config"]["g_eff"] == pytest.approx(5.0)

    @pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS)
    def test_csv_and_json_give_the_same_cells(self, argv, capsys):
        assert main(argv) == 0
        csv_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["columns"] == csv_rows[0]
        assert [[emitted(c) for c in row] for row in data["records"]] == csv_rows[1:]

    @pytest.mark.parametrize("argv", {**OUTPUTS, **EDGES}.values(), ids={**OUTPUTS, **EDGES})
    def test_json_is_the_indent_2_encoding(self, argv, capsys):
        # every float round-trips through repr, so re-encoding the decoded
        # object is an independent reference for the bytes
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_out_file_is_the_indent_2_encoding(self, tmp_path, capsys):
        argv = EDGES["events-no-rows"] + ["--format", "json"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        status, out = run(tmp_path, *argv)
        assert status == 0
        assert '"records": []' in stdout
        assert out.read_text() == stdout == json.dumps(json.loads(stdout), indent=2) + "\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown format 'xml'"):
            emit({}, ("t",), [[0.0]], fmt="xml")

    def test_csv_and_json_agree(self, tmp_path):
        _, csv_out = run(tmp_path, "amplitudes", "--geff", "5",
                         "--t-max", "1", "--steps", "10")
        data_csv = [line.split(",") for line in
                    csv_out.read_text().strip().split("\n")]
        out2 = tmp_path / "o.json"
        main(["amplitudes", "--geff", "5", "--t-max", "1", "--steps", "10",
              "--format", "json", "--out", str(out2)])
        data_json = json.loads(out2.read_text())
        assert data_csv[0] == data_json["columns"]
        for row_c, row_j in zip(data_csv[1:], data_json["records"]):
            for c, j in zip(row_c, row_j):
                assert float(c) == pytest.approx(j, rel=1e-11)


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geff": 5.0, "ratio": 1.5, "t-max": 2.0,
                                   "steps": 20}))
        out1 = tmp_path / "a.csv"
        main(["concurrence", "--config", str(cfg), "--out", str(out1)])
        out2 = tmp_path / "b.csv"
        main(["concurrence", "--config", str(cfg), "--steps", "10",
              "--out", str(out2)])
        assert len(out1.read_text().splitlines()) == 22
        assert len(out2.read_text().splitlines()) == 12

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["concurrence", "--config", str(cfg)]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1, 2]", '"geff"', "null"])
    def test_non_object_rejected(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert main(["concurrence", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    def test_missing_file_rejected(self, tmp_path):
        assert main(["concurrence", "--config", str(tmp_path / "none.json")]) == 2

    def test_string_value_typed_like_its_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geff": "5", "t_max": 2, "steps": 8}))
        status, out1 = run(tmp_path, "concurrence", "--config", str(cfg))
        assert status == 0
        text = out1.read_text()
        status, out2 = run(tmp_path, "concurrence", "--geff", "5", "--t-max", "2",
                           "--steps", "8")
        assert status == 0
        assert text == out2.read_text()

    def test_invalid_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geff": "abc"}))
        with pytest.raises(SystemExit) as exc:
            main(["concurrence", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--geff" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", [flag[2:] for flag in REMOVED])
    @pytest.mark.parametrize("argv", CLOSED_FORM.values(), ids=CLOSED_FORM)
    def test_removed_key_rejected(self, tmp_path, capsys, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0.6}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_figure_preset_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t-max": 1, "steps": 4, "format": "json"}))
        assert main(["figure", "4", "--config", str(cfg), "--steps", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["records"]) == 3
        assert data["config"]["t_max"] == 1.0 and data["config"]["figure"] == 4
        cfg.write_text(json.dumps({"pairs": "a1a2"}))   # not a flag of preset 5
        assert main(["figure", "5", "--config", str(cfg)]) == 2


class TestExitCodes:
    def test_unknown_pair(self, capsys):
        assert main(["concurrence", "--geff", "5", "--pairs", "a1b9"]) == 2
        assert "a1b9" in capsys.readouterr().err
        # a same-chain pair has no finite-time crossings to detect
        assert main(["events", "--geff", "5", "--pairs", "a1c1"]) == 2
        assert "different chains" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["concurrence", "--geff", "5", "--pairs", " , "], "empty pair list"),
        (["events", "--geff", "5", "--pairs", ","], "empty pair list"),
        (["phase-diagram", "--ratio-max", "1"], "invalid phase-diagram grid ranges"),
        (["figure", "7", "--gamma-min", "0.5", "--gamma-max", "0.1"],
         "invalid phase-diagram grid ranges"),
        (["validate", "--t-max", "0"], "--t-max must be positive"),
        (["validate", "--t-max", "-1"], "--t-max must be positive"),
        (["validate", "--tol", "0"], "--tol must be positive"),
        (["validate", "--tol", "-1"], "--tol must be positive"),
        (["validate", "--n-modes", "0"], "--n-modes must be positive"),
        # these ended in a ZeroDivisionError and an OverflowError traceback
        (["validate", "--bandwidth", "5e-324"],
         "bandwidth 4.94066e-324 over 2000 modes underflows the mode spacing to 0"),
        (["validate", "--kappa", "5e-324"],
         "bandwidth 9.88131e-322 over 2000 modes underflows the mode spacing to 0"),
        (["validate", "--t-max", "1.7976931348623157e308"],
         "--t-max 1.79769e+308 takes more RK4 substeps of 1e-06 than a float holds"),
        # this said "g and Omega must be positive"
        (["amplitudes", "--geff", "1e-170", "--kappa", "1e-170"],
         "g_eff 1e-170 times Delta 5e-168 underflows to 0"),
    ])
    def test_config_error_named(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_coupling(self, capsys):
        assert main(["concurrence", "--ratio", "1.5"]) == 2

    def test_negative_ratio_rejected(self, capsys):
        assert main(["concurrence", "--geff", "5", "--ratio", "-1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ratio must be non-negative\n"

    def test_bad_grid(self):
        assert main(["amplitudes", "--geff", "5", "--t-max", "-1"]) == 2

    def test_validate_pass(self, tmp_path):
        status, out = run(tmp_path, "validate", "--t-max", "5",
                          "--n-modes", "800", "--bandwidth", "120")
        assert status == 0
        header, row = out.read_text().strip().split("\n")
        assert header.split(",")[-1] == "passed"
        assert row.split(",")[-1] == "1"

    def test_validate_fail_exit_3(self, tmp_path):
        status, out = run(tmp_path, "validate", "--t-max", "5",
                          "--n-modes", "800", "--bandwidth", "120",
                          "--tol", "1e-9")
        assert status == 3
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "0"

    def test_validate_values(self, tmp_path):
        status, out = run(tmp_path, "validate", "--n-modes", "500",
                          "--bandwidth", "200")
        assert status == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        expect = (0.00339737923317, 0.00395216677618, 0.00196849347559)
        for got, want in zip(row[:3], expect):
            assert float(got) == pytest.approx(want, rel=1e-9, abs=0)

    def test_validate_values_kappa_2(self, tmp_path):
        # the reservoir modes couple at --kappa, through SystemParams alone
        status, out = run(tmp_path, "validate", "--kappa", "2")
        assert status == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        expect = (0.00273711398212, 0.0010305563434, 0.000888223322413)
        for got, want in zip(row[:3], expect):
            assert float(got) == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("point", BENCH_ORACLE["values"])
    def test_validate_at_bench_points(self, point, capsys):
        # every (g_eff, N) of the benchmark's oracle workload, to its
        # tolerance (ORACLE_RTOL in bench/workloads.py)
        geff, n_modes = point.split(":")
        assert main(["validate", "--geff", geff, "--n-modes", n_modes,
                     "--bandwidth", "200"]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.strip().split("\n"))
        assert header[:3] == BENCH_ORACLE["columns"]
        for got, want in zip(row[:3], BENCH_ORACLE["values"][point]):
            assert float(got) == pytest.approx(want, rel=1e-9, abs=0)

    def test_validate_oversized_reservoir(self, capsys):
        # rejected from a size estimate, before any allocation
        assert main(["validate", "--n-modes", "1000000000"]) == 2
        assert "GB" in capsys.readouterr().err

    def test_validate_below_lindblad_rounding(self, capsys):
        # 1e11 RK4 substeps: rounding up to 3.6e-4, within --tol
        assert main(["validate", "--delta-detuning", "1e8"]) == 0
        assert capsys.readouterr().out == (
            "amplitude_error,lindblad_error,leakage,tol,passed\n"
            "0.00644641629422,1.1102515215e-06,1.94773819281e-07,0.02,1\n")

    def test_validate_coupling_below_secular_resolution(self, capsys):
        # the atom's head is deflated, but over t = 10 a coupling of 1e-12
        # moves the populations by ~1e-22: this exited 2
        assert main(["validate", "--geff", "1e-12"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(row[0]) < 1e-14 and row[-1] == "1"

    @pytest.mark.parametrize("argv", [
        ["--geff", "0.1", "--delta-detuning", "1e14"],
        ["--delta-detuning", "3e15", "--tol", "1e6"],
        ["--delta-detuning", "1e16"],
    ])
    def test_validate_beyond_secular_resolution(self, argv, monkeypatch, capsys):
        # the secular solve would deflate the atom's head pole, which then
        # never decays: these exited 3, 0 and 3 on the oracle's resolution
        def unreachable(*args):
            raise AssertionError("an oracle solved")
        monkeypatch.setattr(cli.oracle, "populations", unreachable)
        monkeypatch.setattr(cli.oracle, "lindblad_evolve", unreachable)
        assert main(["validate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Delta" in captured.err and "g_eff" in captured.err

    @pytest.mark.parametrize("delta", ["1e10", "1e12"])
    def test_validate_beyond_lindblad_rounding(self, capsys, delta):
        # lindblad_error read 7.1e-5 at 1e10 and 0.0099 at 1e12, both passing
        assert main(["validate", "--delta-detuning", delta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--delta-detuning" in captured.err and "--t-max" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["amplitudes", "--geff", "5", "--steps", "1000000000000"], "--steps"),
        (["concurrence", "--geff", "5", "--steps", "1000000000000"], "--steps"),
        (["figure", "8", "--steps", "1000000000000"], "--steps"),
        (["events", "--geff", "5", "--t-max", "1e300"], "--t-max"),
        (["events", "--geff", "5", "--t-max", "1e300", "--pairs", "a1c2"], "--t-max"),
        (["window", "--geff", "5", "--t-max", "1e300"], "--t-max"),
        (["phase-diagram", "--gamma-steps", "1000000000", "--ratio-steps", "1000"],
         "--gamma-steps"),
    ])
    def test_runaway_size_rejected(self, capsys, argv, flag):
        # rejected from a size estimate that names the flag, before any work
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "GB" in err

    @pytest.mark.parametrize("t_max, gb", [("16492", "0.0671"), ("40000", "0.163")])
    def test_window_sized_from_its_scan(self, t_max, gb, monkeypatch, capsys):
        # on a 64 MiB machine: window fills the detection grid of events, whose
        # 524,288 cells and more from --t-max 16492 on (128 B a point) would
        # not fit where every lattice span is filled
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16384}
        monkeypatch.setattr(errors.os, "sysconf", pages.__getitem__)
        assert main(["window", "--geff", "5", "--ratio", "3", "--t-max", t_max]) == 2
        assert capsys.readouterr().err.startswith(f"error: --t-max {t_max} needs about {gb} GB;")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    @pytest.mark.parametrize("argv", [
        ["figure", "3", "--ratio", "1e155"],
        ["concurrence", "--geff", "5", "--ratio", "1e300"],
        ["amplitudes", "--geff", "5", "--kappa", "1e200", "--t-max", "1", "--steps", "2"],
        ["events", "--geff", "5", "--kappa", "1e200", "--t-max", "1"],
        ["validate", "--kappa", "1e200"],
    ])
    def test_input_whose_square_overflows(self, argv, capsys):
        assert main(argv) in (0, 2, 3)

    def test_huge_ratio_gives_a_state(self, capsys):
        assert main(["concurrence", "--geff", "5", "--ratio", "1e300", "--steps", "2",
                     "--format", "json"]) == 0
        cfg = json.loads(capsys.readouterr().out)["config"]
        assert cfg["alpha"] == pytest.approx(1e-300, rel=1e-15) and cfg["beta"] == 1.0

    def test_phase_boundary_below_double_resolution(self, capsys):
        assert main(["phase-diagram", "--gamma-min", "1e-9", "--gamma-max", "1e-9",
                     "--gamma-steps", "1", "--ratio-steps", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "gamma,ratio,entangled,boundary\n1e-09,0.8,0,1\n1e-09,0.999,0,1\n"
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_non_finite_output_exit_3(self, capsys):
        # exact_squares overflows at kappa t = 3000 in the overdamped branch
        assert main(["amplitudes", "--geff", "0.01", "--t-max", "3000",
                     "--steps", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite E2 in data row 4 (t = 3000.0)" in captured.err
        # the RK4 propagator overflows at g = 1e17: a run that already fails
        # its tolerance writes no NaN either
        with pytest.warns(UserWarning, match="Delta is not large"), \
                pytest.warns(UserWarning, match=r"bandwidth 200 < 2e\+31"):
            assert main(["validate", "--geff", "1e30"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite lindblad_error in data row 1" in captured.err

    def test_validate_takes_delta(self, tmp_path):
        status, out = run(tmp_path, "validate", "--delta-detuning", "2e4", "--format", "json")
        assert status == 0
        data = json.loads(out.read_text())
        assert data["config"]["Delta"] == 2e4 and data["records"][0][-1] == 1

    def test_validate_kappa_0_defaults(self, tmp_path):
        # Delta and the bandwidth default to 1e4 and 200 in the unit 1, not
        # to 0; undamped, the closed forms drift past the tolerance by t = 10
        status, out = run(tmp_path, "validate", "--kappa", "0", "--format", "json")
        assert status == 3
        data = json.loads(out.read_text())
        assert data["config"]["Delta"] == 1e4 and data["config"]["bandwidth"] == 200.0
        (row,) = data["records"]
        assert all(np.isfinite(row)) and row[-1] == 0


class TestMisc:
    def test_stdout_default(self, capsys):
        assert main(["window", "--geff", "0.1", "--ratio", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "found,t_start,t_end,width"
        assert lines[1].startswith("1,")

    def test_window_absent(self, capsys):
        assert main(["window", "--geff", "0.1", "--ratio", "1.9"]) == 0
        assert capsys.readouterr().out.strip().split("\n")[1].startswith("0,")

    def test_window_after_a1a2_esd_in_first_grid_cell(self, capsys):
        # beta / alpha = 1e6: a1a2 dies at t ~ 2e-4, inside the first grid
        # cell, so the window opens there and not at t = 0
        assert main(["window", "--geff", "5", "--ratio", "1e6", "--t-max", "3"]) == 0
        found, t_start, t_end, _ = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert found == "1" and t_end == "3"
        assert float(t_start) == pytest.approx(2.0e-4, rel=1e-3)

    def test_window_clear_of_a_narrow_cavity_interval(self, capsys):
        # c1c2 is entangled on [0.30432, 0.30476], narrower than a grid cell
        assert main(["window", "--geff", "5", "--ratio", "7.08", "--t-max", "10"]) == 0
        found, t_start, t_end, _ = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert found == "1" and float(t_start) == pytest.approx(0.304756, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_undamped_window_is_the_earliest_of_equal_gaps(self, capsys):
        # at kappa = 0 the gaps repeat every pi / g_eff with equal widths
        assert main(["window", "--geff", "5", "--kappa", "0", "--ratio", "3"]) == 0
        captured = capsys.readouterr()
        found, t_start, t_end, _ = captured.out.strip().split("\n")[1].split(",")
        assert captured.err == "" and found == "1"
        assert float(t_start) == pytest.approx(0.1230959417, abs=1e-8)
        assert float(t_end) == pytest.approx(0.1910633236, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_default_delta_raises_no_warning(self, capsys):
        # from_geff's default Delta = 500 kappa is below 10 g once g_eff > 5 kappa
        for argv in (["phase-diagram", "--gamma-min", "1", "--gamma-max", "20",
                      "--gamma-steps", "3", "--ratio-steps", "2"],
                     ["events", "--geff", "8", "--ratio", "2", "--t-max", "1"]):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
        SystemParams.from_geff(60.0)

    # the overflow is reported by the error line alone, not by numpy warnings
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [
        # cosh overflows and the damping underflows: NaN squares past t = 0
        ["events", "--geff", "5", "--kappa", "1e150", "--t-max", "1", "--pairs", "a1c2"],
        ["window", "--geff", "5", "--kappa", "1e150", "--t-max", "1"],
        # overdamped, the amplitudes overflow past kappa t ~ 2840
        ["events", "--geff", "0.01", "--t-max", "3000"],
    ])
    def test_non_finite_amplitudes_exit_2(self, command, capsys):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err

    def test_a1a2_entangled_at_zero_where_alpha_squared_underflows(self, capsys):
        assert main(["events", "--geff", "5", "--ratio", "1e200", "--t-max", "3",
                     "--pairs", "a1a2"]) == 0
        assert capsys.readouterr().out.split()[1:] == ["ESD,a1a2,0"]
        assert main(["window", "--geff", "5", "--ratio", "1e200", "--t-max", "3"]) == 0
        assert capsys.readouterr().out.split()[1] == "1,0,3,3"

    def test_no_reservoir_events_without_decay(self, capsys):
        # R = 0 at kappa = 0: no pair with a reservoir is ever entangled, so
        # none is born at t = 0
        assert main(["events", "--geff", "5", "--kappa", "0", "--ratio", "0.5",
                     "--t-max", "5", "--pairs", "r1r2,a1r2,c1r2"]) == 0
        assert capsys.readouterr().out == "kind,pair,time\n"

    @pytest.mark.parametrize("ratio", ["1", "0.5"])
    def test_no_false_events_far_out(self, ratio, capsys):
        # a1a2 stays entangled: rounding (ratio 1) and underflow (ratio 0.5)
        # of its closed form must not read as sudden deaths
        assert main(["events", "--geff", "5", "--ratio", ratio, "--t-max", "4000",
                     "--pairs", "a1a2"]) == 0
        assert capsys.readouterr().out == "kind,pair,time\n"

    def test_events_of_pairs_across_cavity_and_reservoir(self, capsys):
        assert main(["events", "--geff", "0.1", "--ratio", "3", "--t-max", "60",
                     "--pairs", "a1c2,c1r2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert {row[1] for row in rows} == {"a1c2", "c1r2"}

    def test_cli_import_leaves_scipy_out(self):
        # a fresh isolated interpreter: the test process itself has scipy and
        # the reference route loaded
        src = os.path.dirname(os.path.dirname(entransfer.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import entransfer.cli; "
                "loaded = {'scipy', 'cmath', 'entransfer.jointstate', 'entransfer.qops'} "
                "& set(sys.modules); "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)

    def test_events_and_window_leave_numpy_ma_out(self):
        # np.unique and np.union1d import numpy.ma on first use, 10-20 ms
        src = os.path.dirname(os.path.dirname(entransfer.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import entransfer.cli as c; "
                "c.main(['events', '--geff', '5', '--ratio', '1.5', '--t-max', '3']); "
                "c.main(['window', '--geff', '5', '--ratio', '7.08', '--t-max', '10']); "
                "assert 'numpy.ma' not in sys.modules")
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

    @pytest.mark.parametrize("argv", [["events", "--geff", "1e5", "--kappa", "0.249999999"],
                                      ["window", "--geff", "5", "--ratio", "7.08", "--t-max", "10"]])
    def test_one_lattice_per_call(self, argv, monkeypatch, capsys):
        # the pairs share one lattice, its squares and one grid-size check
        calls = []
        for module, name in ((events_module, "_lattice"), (events_module, "_detection_cells"),
                             (cli, "_detection_cells")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k:
                                calls.append(name) or fn(*a, **k))
        assert main(argv) == 0
        assert sorted(calls) == ["_detection_cells", "_lattice"]

    def test_package_root_names_resolve(self):
        assert all(hasattr(entransfer, name) for name in entransfer.__all__)

    def test_regimes(self, capsys):
        for regime in ("exact", "strong", "weak"):
            assert main(["amplitudes", "--geff", "5", "--t-max", "1",
                         "--steps", "5", "--regime", regime]) == 0

    def test_ratio_sets_alpha_beta(self, capsys):
        argv = ["concurrence", "--geff", "5", "--ratio", "1.3333333333333333",
                "--t-max", "1", "--steps", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # C_a1a2(0) = 2 alpha beta = 0.96
        assert out.splitlines()[1].split(",")[1] == "0.96"
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["alpha"] == 0.6


# the JSON "config" keys, in output order
BASE = ["command", "g", "Omega", "Delta", "kappa", "g_eff"]
SERIES = BASE + ["alpha", "beta", "t_max", "steps"]
CONCURRENCE = BASE + ["alpha", "beta", "pairs", "t_max", "steps"]
PHASE = ["command", "kappa", "gamma_min", "gamma_max", "gamma_steps",
         "ratio_min", "ratio_max", "ratio_steps"]


class TestFlags:
    """Each subcommand and preset takes exactly the flags its handler reads."""

    @pytest.mark.parametrize("argv", [
        ["amplitudes", "--geff", "5", "--pairs", "a1a2"],
        ["phase-diagram", "--geff", "5"],
        ["phase-diagram", "--kappa", "3"],
        ["validate", "--g", "3"],
        ["window", "--geff", "0.1", "--steps", "7"],
        ["figure", "7", "--geff", "5"],
        ["figure", "5", "--pairs", "a1a2"],
        ["amplitudes", "--geff", "5", "--seed", "42"],
        # no flag is abbreviated: allow_abbrev is off
        ["events", "--geff", "5", "--rat", "3"],
        ["figure", "3", "--st", "4"],
        ["events", "--geff", "5", "--steps", "100"],
    ] + [pytest.param(argv + [flag, "0.6"], id=name + flag)
         for name, argv in CLOSED_FORM.items() for flag in REMOVED])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["amplitudes", "--geff", "nan"],
        ["concurrence", "--geff", "inf"],
        ["events", "--geff", "5", "--t-max", "inf"],
        ["validate", "--bandwidth", "nan"],
        ["phase-diagram", "--gamma-max", "inf"],
        ["figure", "3", "--ratio=-inf"],
    ])
    def test_non_finite_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, keys", [
        (["amplitudes", "--geff", "5", "--steps", "4"],
         BASE + ["regime", "t_max", "steps"]),
        (["concurrence", "--geff", "5", "--steps", "4"], CONCURRENCE),
        (["events", "--geff", "5", "--ratio", "1.5", "--t-max", "3"],
         BASE + ["alpha", "beta", "pairs", "t_max"]),
        (["window", "--geff", "0.1", "--ratio", "3"], BASE + ["alpha", "beta", "t_max"]),
        (["phase-diagram", "--gamma-steps", "2", "--ratio-steps", "2"], PHASE),
        (["validate", "--n-modes", "200", "--bandwidth", "100", "--t-max", "2"],
         BASE + ["n_modes", "bandwidth", "t_max", "tol"]),
    ] + [(["figure", str(n), "--steps", "4"], CONCURRENCE + ["figure"])
         for n in (3, 4, 9, 10)]
      + [(["figure", str(n), "--steps", "4"], SERIES + ["figure"]) for n in (5, 6, 8)]
      + [(["figure", "7", "--gamma-steps", "2", "--ratio-steps", "2"], PHASE + ["figure"])])
    def test_json_config_keys(self, argv, keys, capsys):
        assert main(argv + ["--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["config"]) == keys


PARSES = ([([name], {"command": name, **defaults}) for name, defaults in COMMANDS.items()]
          + [(["figure", str(n)], {"command": "figure", "number": n, **defaults})
             for n, (_, defaults) in FIGURES.items()])


class TestParser:
    """build_parser(argv) fills in only what argv names, and parses as a
    parser with every subcommand and preset filled in would."""

    @pytest.mark.parametrize("argv, want", PARSES, ids=[" ".join(a) for a, _ in PARSES])
    def test_defaults(self, argv, want):
        got = vars(build_parser(argv).parse_args(argv))
        assert got == dict(want, out=None, format="csv", config=None)

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in [*COMMANDS, "figure"])

    def test_figure_help_lists_presets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--help"])
        assert exc.value.code == 0
        assert "positional arguments:\n  N\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, first", [
        (["events", "--help"], "usage: entransfer events [-h] [--geff GEFF]"),
        (["figure", "3", "--help"], "usage: entransfer figure 3 [-h] [--geff GEFF]"),
        (["figure", "--help"], "usage: entransfer figure [-h] N"),
    ])
    def test_help_usage_names_the_command(self, argv, first, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(first)

    @pytest.mark.parametrize("argv, names", [
        (["figure", "11"], [str(n) for n in FIGURES]),
        (["bogus"], [*COMMANDS, "figure"]),
        (["figure", "07"], [str(n) for n in FIGURES]),
    ])
    def test_invalid_choice_lists_every_name(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        listed = re.search(r"invalid choice: .* \(choose from (.*)\)", err)
        assert listed, err
        # argparse quotes the names with repr on some versions and not on others
        assert [name.strip("'") for name in listed.group(1).split(", ")] == names

    @pytest.mark.parametrize("argv, missing", [([], "command"), (["figure"], "N")])
    def test_missing_name_rejected(self, argv, missing, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["amplitudes"], ["figure", "10"], ["figure"], ["bogus"]])
    def test_one_parser_per_call(self, argv, monkeypatch):
        # one parser on the first call, none on a repeat
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(init(self, *a, **k)))
        cli._parser.cache_clear()
        build_parser(argv)
        assert len(built) == 1
        build_parser(argv)
        assert len(built) == 1

    def test_parses_leave_no_trace(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t-max": 1, "steps": 4, "ratio": 2}))
        argv = ["figure", "3", "--config", str(cfg), "--format", "json",
                "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        want = next(w for a, w in PARSES if a == ["figure", "3"])
        got = vars(build_parser(["figure", "3"]).parse_args(["figure", "3"]))
        assert got == dict(want, out=None, format="csv", config=None)
        # an instance attribute, as a tracer that wraps parse_args sets
        first = build_parser(["figure", "3"])
        first.parse_args = first.traced = None
        assert not {"parse_args", "traced"} & set(vars(build_parser(["figure", "3"])))

    def test_double_dash_ends_the_options(self, capsys):
        # argparse drops a "--" before a positional, so build_parser skips it too
        want = vars(build_parser(["figure", "3"]).parse_args(["figure", "3"]))
        for argv in (["figure", "--", "3"], ["--", "figure", "3"]):
            assert vars(build_parser(argv).parse_args(argv)) == want
        assert main(["--", "events"]) == 2      # every flag after "--" is a positional
        assert capsys.readouterr().err == "error: specify --geff\n"
        with pytest.raises(SystemExit) as exc:
            main(["--", "--", "events"])
        assert exc.value.code == 2 and "invalid choice: '--'" in capsys.readouterr().err

    def test_figure_config_merged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t-max": 1, "steps": 4, "ratio": 2}))
        assert main(["figure", "3", "--config", str(cfg), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["records"]) == 5
        assert data["config"]["t_max"] == 1.0 and data["config"]["figure"] == 3
        assert data["config"]["beta"] / data["config"]["alpha"] == pytest.approx(2.0)


class TestOut:
    """--out writes a symlink's target and special files in place."""

    ARGV = ["figure", "3", "--steps", "4"]

    def expected(self, tmp_path):
        path = tmp_path / "plain.csv"
        assert main(self.ARGV + ["--out", str(path)]) == 0
        return path.read_text()

    def test_symlink_target_written(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == self.expected(tmp_path)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_dangling_symlink_creates_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == self.expected(tmp_path)

    def test_new_file_honours_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert main(self.ARGV + ["--out", str(tmp_path / "new.csv")]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640

    def test_existing_file_keeps_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o604)
        assert main(self.ARGV + ["--out", str(path)]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert path.read_text() == self.expected(tmp_path)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(cli.os, "replace", fail)
        assert main(self.ARGV + ["--out", str(tmp_path / "out.csv")]) == 2
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().err == "error: replace failed\n"

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(self.ARGV + ["--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert got == [self.expected(tmp_path)]


# edge values of the fuzzed flags, by argparse type.  Sizes are bounded so
# that each call takes under about 0.15 s: counts stop at 40, so no grid,
# mode set or phase diagram is large, and no time or rate lies between 60
# and 1e12, where the events and window scans are large but still pass
# their memory guards (events --geff 1e5 --kappa 0.249999999 takes about
# 0.6 s); from 1e12 on the guards reject a scan from its size estimate.
FUZZ_FLOATS = ["0", "-0", "-1", "5e-324", "1e-300", "0.24999999999999997", "0.25",
               "0.25000000000000006", "0.5", "0.999", "1", "5", "60", "1e12", "1e154",
               "1e155", "1.7976931348623157e308", "nan"]
FUZZ_COUNTS = ["-1", "0", "1", "2", "40"]
FUZZ_TEXT = {"pairs": ["a1a2", "c1c2,r1r2", "a1c2,a1r2,c1r2", "a1c1", "x", ","]}


def fuzz_values(dest):
    options = cli.FLAGS[dest]
    if "choices" in options:
        return list(options["choices"])
    return {cli._finite: FUZZ_FLOATS, int: FUZZ_COUNTS}.get(options.get("type")) or FUZZ_TEXT[dest]


@st.composite
def fuzz_argv(draw):
    """A subcommand or figure preset with 1-3 of its own flags at edge values."""
    head = draw(st.sampled_from([[c] for c in COMMANDS] + [["figure", str(n)] for n in FIGURES]))
    own = COMMANDS[head[0]] if len(head) == 1 else FIGURES[int(head[1])][1]
    argv = list(head)
    for dest in draw(st.lists(st.sampled_from(sorted(own)), min_size=1, max_size=3, unique=True)):
        argv.append(f"--{dest.replace('_', '-')}={draw(st.sampled_from(fuzz_values(dest)))}")
    return argv


class TestArgvFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(argv=fuzz_argv())
    def test_exit_status_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                status = main(argv)
            except SystemExit as exc:      # argparse's own exit 2
                status = exc.code
        assert status in (0, 2, 3), argv
        if status == 2:
            assert [line for line in err.getvalue().splitlines() if "error: " in line] \
                == err.getvalue().splitlines()[-1:], argv
        if status == 0:
            rows = out.getvalue().splitlines()[1:]
            cells = [c for row in rows if row != "0,nan,nan,nan" or argv[0] != "window"
                     for c in row.split(",")]
            assert not [c for c in cells if c.lower().lstrip("+-") in ("nan", "inf")], argv
