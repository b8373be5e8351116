"""CLI tests: determinism, golden files, serialization, exit codes."""

import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import entransfer
from entransfer.cli import COMMANDS, FIGURES, build_parser, main
from entransfer.events import EventRecord

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    status = main(list(argv) + ["--out", str(out)])
    return status, out


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
        assert out.read_bytes() == open(golden, "rb").read()

    def test_phase_diagram_golden(self, tmp_path):
        status, out = run(tmp_path, "figure", "7",
                          "--gamma-steps", "6", "--ratio-steps", "7")
        assert status == 0
        golden = os.path.join(GOLDEN_DIR, "figure7.csv")
        assert out.read_bytes() == open(golden, "rb").read()

    def test_events_golden(self, tmp_path):
        status, out = run(tmp_path, "events", "--ratio", "1.5", "--geff", "5",
                          "--t-max", "3")
        assert status == 0
        golden = os.path.join(GOLDEN_DIR, "events_strong.csv")
        assert out.read_bytes() == open(golden, "rb").read()


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

    def test_missing_coupling(self, capsys):
        assert main(["concurrence", "--ratio", "1.5"]) == 2

    def test_incomplete_explicit_params(self, capsys):
        assert main(["amplitudes", "--g", "50"]) == 2

    def test_bad_grid(self, capsys):
        assert main(["amplitudes", "--geff", "5", "--t-max", "-1"]) == 2
        for steps in ("0", "-3"):
            assert main(["events", "--geff", "0.1", "--steps", steps]) == 2
            assert "at least 1 cell" in capsys.readouterr().err

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

    def test_validate_oversized_reservoir(self, capsys):
        # rejected from a size estimate, before any allocation
        assert main(["validate", "--n-modes", "10000000"]) == 2
        assert "GB" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["amplitudes", "--geff", "5", "--steps", "1000000000000"], "--steps"),
        (["concurrence", "--geff", "5", "--steps", "1000000000000"], "--steps"),
        (["figure", "8", "--steps", "1000000000000"], "--steps"),
        (["events", "--geff", "5", "--t-max", "1e300"], "--t-max"),
        (["events", "--geff", "5", "--steps", "1000000000000"], "--steps"),
        (["window", "--geff", "5", "--t-max", "1e300"], "--t-max"),
        (["phase-diagram", "--gamma-steps", "1000000000", "--ratio-steps", "1000"],
         "--gamma-steps"),
    ])
    def test_runaway_size_rejected(self, capsys, argv, flag):
        # rejected from a size estimate that names the flag, before any work
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "GB" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_exit_3(self, capsys):
        # exact_squares overflows at kappa t = 3000 in the overdamped branch
        assert main(["amplitudes", "--geff", "0.01", "--t-max", "3000",
                     "--steps", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite E2 in data row 4 (t = 3000.0)" in captured.err


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
        # a fresh isolated interpreter: the test process itself has scipy loaded
        src = os.path.dirname(os.path.dirname(entransfer.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import entransfer.cli; "
                "assert 'scipy' not in sys.modules")
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)

    def test_regimes(self, capsys):
        for regime in ("exact", "strong", "weak"):
            assert main(["amplitudes", "--geff", "5", "--t-max", "1",
                         "--steps", "5", "--regime", regime]) == 0

    def test_explicit_alpha_beta(self, capsys):
        assert main(["concurrence", "--geff", "5", "--alpha", "0.6",
                     "--beta", "0.8", "--t-max", "1", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        # C_a1a2(0) = 2 alpha beta = 0.96
        assert out.splitlines()[1].split(",")[1] == "0.96"


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
    ])
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

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_amplitude_above_one_rejected(self, flag, capsys):
        assert main(["concurrence", "--geff", "5", flag, "1.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

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

    @pytest.mark.parametrize("argv, names", [
        (["figure", "11"], [str(n) for n in FIGURES]),
        (["bogus"], [*COMMANDS, "figure"]),
    ])
    def test_invalid_choice_lists_every_name(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert all(repr(name) in err for name in names)

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
