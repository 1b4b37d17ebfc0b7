import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csrchain import (
    ScenarioError,
    load_scenario,
    parse_csv,
    solve_game,
    trajectory_max_delta,
)
from csrchain import sweep
from csrchain.cli import main, run
from csrchain.output import emit_csv, render_report

from conftest import REFERENCE

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REFERENCE_FILE = """\
name = reference
alpha = 0.9
beta_s = 0.3
beta_m = 0.3
beta_r = 0.2
tau = 0.1
theta = 0.05
delta_s = 0.01
delta_m = 0.02
delta_r = 0.03
d = 0.1
d_hat = 0.1
a = 10
b = 1
v = 2
z = 12
c = 1
x1 = 1
horizon_T = 3
"""


def run_in_ascii_locale(*args):
    """Run python with ``args`` where the locale and file-system encodings
    are ASCII."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def write_scenario(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadScenario:
    def test_well_formed_reference(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, REFERENCE_FILE))
        assert scenario.name == "reference"
        assert scenario.params.horizon_T == 3
        for key, value in REFERENCE.items():
            assert getattr(scenario.params, key) == value
        assert scenario.oracle is False
        assert scenario.tolerance == 1e-8

    def test_name_defaults_to_file_stem(self, tmp_path):
        text = REFERENCE_FILE.replace("name = reference\n", "")
        scenario = load_scenario(write_scenario(tmp_path, text, "mycase.scenario"))
        assert scenario.name == "mycase"

    def test_invalid_beta_named_with_bound(self, tmp_path):
        text = REFERENCE_FILE.replace("beta_s = 0.3", "beta_s = 1.5")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, text))
        message = str(excinfo.value)
        assert "beta_s" in message and "(0, 1)" in message

    def test_missing_field_named(self, tmp_path):
        text = REFERENCE_FILE.replace("horizon_T = 3\n", "")
        with pytest.raises(ScenarioError, match="horizon_T"):
            load_scenario(write_scenario(tmp_path, text))

    def test_all_parse_problems_reported_together(self, tmp_path):
        text = (REFERENCE_FILE
                .replace("horizon_T = 3\n", "")
                .replace("tau = 0.1", "tau = oops")
                + "mystery = 1\n")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, text))
        assert len(excinfo.value.violations) == 3

    def test_all_invariant_violations_reported_together(self, tmp_path):
        text = (REFERENCE_FILE
                .replace("beta_s = 0.3", "beta_s = 1.5")
                .replace("b = 1", "b = -2")
                .replace("d = 0.1", "d = 1.2"))
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, text))
        assert len(excinfo.value.violations) == 3

    def test_option_problems_precede_invariant_violations(self, tmp_path):
        """The file's tolerance, then the override's, then every violated
        parameter invariant in field order, in one error."""
        text = (REFERENCE_FILE
                .replace("beta_s = 0.3", "beta_s = 1.5")
                .replace("b = 1", "b = -2")
                + "tolerance = -1\n")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, text), tolerance=0.0)
        assert excinfo.value.violations == [
            "tolerance must be finite and positive, got -1.0",
            "tolerance must be finite and positive, got 0.0",
            "beta_s must lie in (0, 1), got 1.5",
            "b must be positive, got -2.0",
        ]

    def test_parse_error_carries_line_number(self, tmp_path):
        text = REFERENCE_FILE + "weird line without equals\n"
        lineno = text.count("\n")
        with pytest.raises(ScenarioError, match=f"line {lineno}"):
            load_scenario(write_scenario(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown key 'frobnicate'"):
            load_scenario(write_scenario(tmp_path, REFERENCE_FILE + "frobnicate = 1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="duplicate key 'tau'"):
            load_scenario(write_scenario(tmp_path, REFERENCE_FILE + "tau = 0.2\n"))

    def test_bad_value_names_field(self, tmp_path):
        text = REFERENCE_FILE.replace("tau = 0.1", "tau = not-a-number")
        with pytest.raises(ScenarioError, match="'tau'"):
            load_scenario(write_scenario(tmp_path, text))

    def test_bad_boolean_names_line(self, tmp_path):
        text = REFERENCE_FILE + "oracle = maybe\n"
        lineno = text.count("\n")
        with pytest.raises(ScenarioError, match=rf"line {lineno}: field 'oracle': expected "
                                                r"a boolean \(true/false\), got 'maybe'"):
            load_scenario(write_scenario(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.scenario")

    def test_directory_is_not_missing(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file") as excinfo:
            load_scenario(tmp_path)
        assert "not found" not in str(excinfo.value)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "binary.scenario"
        path.write_bytes(REFERENCE_FILE.encode() + b"# \xff\n")
        with pytest.raises(ScenarioError, match="not UTF-8") as excinfo:
            load_scenario(path)
        assert str(path) in str(excinfo.value)

    def test_unreadable_file_names_file(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, REFERENCE_FILE)

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", refuse)
        with pytest.raises(ScenarioError, match="Permission denied") as excinfo:
            load_scenario(path)
        assert str(path) in str(excinfo.value)

    def test_options_parsed(self, tmp_path):
        text = REFERENCE_FILE + "oracle = true\ntolerance = 1e-9\nseed = 7\n"
        scenario = load_scenario(write_scenario(tmp_path, text))
        assert scenario.oracle is True
        assert scenario.tolerance == 1e-9
        assert scenario.seed == 7

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, value):
        text = REFERENCE_FILE + f"tolerance = {value}\n"
        with pytest.raises(ScenarioError, match="tolerance must be finite and positive"):
            load_scenario(write_scenario(tmp_path, text))

    def test_none_override_keeps_file_value(self, tmp_path):
        path = write_scenario(tmp_path, REFERENCE_FILE + "seed = 3\n")
        assert load_scenario(path, oracle=None, tolerance=None, seed=None,
                             strict_alpha=None).seed == 3

    def test_unknown_override_raises_before_reading(self, tmp_path):
        with pytest.raises(TypeError, match="horizon_T"):
            load_scenario(tmp_path / "absent.scenario", horizon_T=5)

    @pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
    def test_name_must_be_plain_file_name(self, tmp_path, name):
        text = REFERENCE_FILE.replace("name = reference", f"name = {name}")
        with pytest.raises(ScenarioError, match="line 1: field 'name'"):
            load_scenario(write_scenario(tmp_path, text))

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# header\n\n" + REFERENCE_FILE.replace(
            "tau = 0.1", "tau = 0.1   # inline comment")
        scenario = load_scenario(write_scenario(tmp_path, text))
        assert scenario.params.tau == 0.1


class TestCsvRoundTrip:
    def test_row_count(self, tmp_path, reference_params):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,i_s,i_m,i_r,q,p_s,p_m,p_r,u,u_prime"
        assert len(lines) == 1 + reference_params.horizon_T + 1

    def test_round_trip_exact(self, tmp_path, reference_params):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        back = parse_csv(path)
        # 17 significant digits round-trip doubles exactly
        assert trajectory_max_delta(traj, back) == 0.0
        assert np.array_equal(traj.x, back.x)
        assert np.array_equal(traj.p_s, back.p_s)
        assert np.array_equal(traj.u_prime, back.u_prime)

    @pytest.mark.parametrize("rows", [0, 1], ids=["header_only", "terminal_row_only"])
    def test_truncated_file_rejected(self, tmp_path, reference_params, rows):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[len(lines) - rows:]))
        with pytest.raises(ValueError, match=rf"out\.csv: {rows} data rows"):
            parse_csv(path)

    @pytest.mark.parametrize("header", ["", "t,x,i_s,i_m,i_r,q,p_s,p_m,p_r,u\n",
                                        "t,x,i_s,i_m,i_r,q,p_s,p_m,p_r,u_prime,u\n"],
                             ids=["empty", "short", "swapped"])
    def test_wrong_header_rejected(self, tmp_path, reference_params, header):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(lines[1:]) if header else "")
        with pytest.raises(ValueError, match=r"unexpected CSV header in .*out\.csv"):
            parse_csv(path)

    def test_short_row_rejected(self, tmp_path, reference_params):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = ",".join(lines[2].split(",")[:6]) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 3 of .*out\.csv has 6 cells, expected 11"):
            parse_csv(path)

    def _csv_lines(self, tmp_path, params, name="out.csv"):
        traj, _ = solve_game(params)
        path = tmp_path / name
        emit_csv(traj, path)
        return path, path.read_text().splitlines(keepends=True)

    def test_reordered_rows_rejected(self, tmp_path, reference_params):
        path, lines = self._csv_lines(tmp_path, reference_params)
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 3 of .*out\.csv has t = '3', expected 2"):
            parse_csv(path)

    def test_spliced_rows_rejected(self, tmp_path, reference_params):
        """Two periods of a T = 3 file followed by the last two rows of a
        T = 5 file: as many rows as a T = 3 file, but t jumps 2 -> 5."""
        path, short = self._csv_lines(tmp_path, reference_params)
        _, long = self._csv_lines(tmp_path, dataclasses.replace(reference_params, horizon_T=5),
                                  name="long.csv")
        path.write_text("".join(short[:3] + long[-2:]))
        with pytest.raises(ValueError, match=r"line 4 of .*out\.csv has t = '5', expected 3"):
            parse_csv(path)

    def test_out_of_place_t_values_rejected(self, tmp_path, reference_params):
        path, lines = self._csv_lines(tmp_path, reference_params)
        lines[1] = "99" + lines[1][1:]
        lines[2] = "7" + lines[2][1:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 2 of .*out\.csv has t = '99', expected 1"):
            parse_csv(path)

    @pytest.mark.parametrize("cell", ["2.0", "two", "", "0x2"])
    def test_non_integer_t_rejected(self, tmp_path, reference_params, cell):
        path, lines = self._csv_lines(tmp_path, reference_params)
        lines[2] = cell + lines[2][1:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"line 3 of .*out\.csv has t = '{cell}', expected 2"):
            parse_csv(path)

    # a cell float() reads but emit_csv never writes is refused too
    @pytest.mark.parametrize("cell", ["abc", "", " 1_0 ", "1e1", "+1"],
                             ids=["non_numeric", "empty", "spaced_underscore",
                                  "exponent", "plus_sign"])
    def test_bad_cell_inside_span_names_line_and_column(self, tmp_path, reference_params,
                                                        cell):
        path, lines = self._csv_lines(tmp_path, reference_params)
        cells = lines[3].split(",")
        cells[4] = cell                                   # i_r at t = 2
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"line 4 of .*out\.csv, column 'i_r': "
                                             rf"'{re.escape(cell)}' is not a number"):
            parse_csv(path)

    def test_special_values_round_trip(self, tmp_path, reference_params):
        traj, _ = solve_game(reference_params)
        traj.x[1:4] = [np.nan, np.inf, -0.0]
        traj.u[0] = -np.inf
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        back = parse_csv(path)
        assert np.array_equal(back.x, traj.x, equal_nan=True)
        assert np.signbit(back.x[3]) and back.u[0] == -np.inf

    @pytest.mark.parametrize("row, column, name", [(4, 2, "i_s"), (1, 6, "p_s")],
                             ids=["control_on_terminal_row", "costate_at_t1"])
    def test_filled_cell_outside_span_rejected(self, tmp_path, reference_params,
                                               row, column, name):
        path, lines = self._csv_lines(tmp_path, reference_params)
        cells = lines[row].split(",")
        assert cells[column] == ""
        cells[column] = "1.5"
        lines[row] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"line {row + 1} of .*out\.csv, column "
                                             rf"'{name}': the cell must be empty at "
                                             rf"t = {row}, got '1.5'"):
            parse_csv(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,x\n\xff\xfe")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not UTF-8"):
            parse_csv(path)

    def test_zero_trajectory_all_zero_cells(self, tmp_path):
        from csrchain import Controls, Trajectory
        T = 3
        traj = Trajectory(
            x=np.zeros(T + 1),
            controls=Controls(np.zeros(T), np.zeros(T), np.zeros(T)),
            q=np.zeros(T),
            p_s=np.zeros(T), p_m=np.zeros(T), p_r=np.zeros(T),
            u=np.zeros(T + 1), u_prime=np.zeros(T + 1),
        )
        path = tmp_path / "zero.csv"
        emit_csv(traj, path)
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(",")[1:]:
                if cell:
                    assert float(cell) == 0.0

    def test_terminal_row_shape(self, tmp_path, reference_params):
        traj, _ = solve_game(reference_params)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        last = path.read_text().splitlines()[-1].split(",")
        T = reference_params.horizon_T
        assert last[0] == str(T + 1)
        assert last[2] == last[3] == last[4] == last[5] == ""   # no controls, no q
        assert float(last[6]) == 0.0 and float(last[8]) == 0.0  # transversality


class TestReport:
    def test_convexity_flag_follows_tax_curvature(self, reference_params):
        _, report = solve_game(reference_params)
        assert "convexity_warning: true" in render_report(report)

    def test_oracle_fields_omitted_when_off(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, REFERENCE_FILE))
        _, report = run(scenario)
        text = render_report(report)
        assert "oracle_max_delta" not in text
        assert "oracle_residual_max" not in text

    def test_oracle_fields_present_when_on(self, tmp_path):
        scenario = load_scenario(
            write_scenario(tmp_path, REFERENCE_FILE + "oracle = true\n"))
        _, report = run(scenario)
        assert report.oracle_max_delta <= 1e-8
        text = render_report(report)
        assert "oracle_max_delta:" in text
        assert "oracle_residual_max:" in text

    @pytest.mark.parametrize("options", ["", "seed = 7\ntolerance = 1e-6\n"])
    def test_run_labels_report_with_scenario(self, tmp_path, options):
        text = REFERENCE_FILE.replace("name = reference", "name = labelled") + options
        scenario = load_scenario(write_scenario(tmp_path, text))
        _, report = run(scenario)
        assert (report.scenario_name, report.seed, report.tolerance) == (
            scenario.name, scenario.seed, scenario.tolerance)
        assert report.scenario_name == "labelled"

    @pytest.mark.skipif(sys.getfilesystemencoding().lower().replace("-", "") != "utf8",
                        reason="the file-system encoding cannot spell the name")
    def test_non_ascii_name_written_as_utf8(self, tmp_path):
        text = REFERENCE_FILE.replace("name = reference", "name = café")
        scenario_path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 0
        report = (out / "café.report").read_bytes().decode("utf-8")
        assert report.startswith("scenario: café\n")
        assert parse_csv(out / "café.trajectory.csv").horizon == 3

    def test_report_bytes_do_not_depend_on_locale(self, tmp_path):
        path = tmp_path / "labelled.report"
        code = ("from csrchain import ModelParams, solve_game; "
                "from csrchain.output import emit_report; "
                f"report = solve_game(ModelParams(**{REFERENCE!r}))[1]; "
                f"report.scenario_name = 'caf\\u00e9'; emit_report(report, {str(path)!r})")
        result = run_in_ascii_locale("-c", code)
        assert result.returncode == 0, result.stderr.decode("ascii", "replace")
        assert path.read_bytes().startswith("scenario: café\n".encode("utf-8"))

    def test_identical_runs_identical_bytes(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, REFERENCE_FILE))
        _, first = run(scenario)
        _, second = run(scenario)
        assert render_report(first) == render_report(second)


class TestCli:
    def test_solve_reference_exit_zero(self, tmp_path):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        out = tmp_path / "artifacts"
        code = main(["solve", str(scenario_path), "--out-dir", str(out), "--oracle"])
        assert code == 0
        assert (out / "reference.trajectory.csv").is_file()
        report_text = (out / "reference.report").read_text()
        assert "oracle_max_delta:" in report_text
        assert "scenario: reference" in report_text

    @pytest.mark.parametrize("flags", [[], ["--oracle"]])
    def test_successful_run_warns_on_stderr(self, tmp_path, capsys, flags):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        out = tmp_path / "out"
        assert main(["solve", str(scenario_path), "--out-dir", str(out), *flags]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: stationary point is not a local maximum in own control "
            "(tau*theta > 0)",
            "warning: some equilibrium investments are negative",
        ]

    def test_byte_identical_outputs(self, tmp_path):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        outs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 0
            outs.append((
                (out / "reference.trajectory.csv").read_bytes(),
                (out / "reference.report").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_degenerate_tax_structure_exits_nonzero(self, tmp_path, capsys):
        text = REFERENCE_FILE.replace("theta = 0.05", "theta = 0")
        scenario_path = write_scenario(tmp_path, text)
        code = main(["solve", str(scenario_path), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "controls undetermined by FOC" in err
        assert not (tmp_path / "case.trajectory.csv").exists()

    def test_singular_boundary_system_exits_one(self, tmp_path, capsys, monkeypatch):
        """A sweep breakdown is a solver failure: exit 1 with an error line
        naming the level, no traceback and no artifacts.  The rows
        xt[t+1] - xt[t] - Pt[t+1] = 0 and xt[t] - Pt[t] + Pt[t+1] = 0 map
        (xt, Pt) to (Pt, Pt - xt), so at T = 2 the final equation cannot
        determine Pt[1] and xt[3]."""
        def singular(params, level, fixed=None):
            eye, zero, T = np.eye(4), np.zeros((4, 4)), params.horizon_T
            return sweep.AugmentedSystem(level=level, P=np.block([[-eye, zero], [eye, -eye]]),
                                         Q=np.block([[eye, -eye], [zero, eye]]),
                                         g=np.zeros((T, 8)), sol_G=np.zeros((7, 16)),
                                         sol_g=np.zeros((T, 7)), xt1=np.zeros(4))
        monkeypatch.setattr(sweep, "assemble_augmented", singular)
        text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 2")
        scenario_path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "outer level" in err
        assert not out.exists()

    @pytest.mark.parametrize("case, tolerance", [("tight", "1.000e-20"), ("T47", "1.000e-08")])
    def test_missed_tolerance_exits_one_with_artifacts(self, tmp_path, capsys, case,
                                                       tolerance):
        """A residual over the tolerance fails the run: exit 1 with one error
        line and no warning, both artifacts written.  At T = 47 the
        reference's residual, 1.863e-08, misses the default 1e-8."""
        if case == "tight":
            args = [str(REPO / "scenarios" / "reference.scenario"), "--tolerance", "1e-20"]
        else:
            text = REFERENCE_FILE.replace("horizon_T = 3", "horizon_T = 47")
            args = [str(write_scenario(tmp_path, text + "oracle = false\n"))]
        out = tmp_path / "out"
        assert main(["solve", *args, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: residual max-norm (\S+) exceeds tolerance (\S+)\n",
                            captured.err).group(2) == tolerance
        if case == "T47":
            assert "max-norm 1.863e-08 " in captured.err
        assert (out / "reference.trajectory.csv").is_file()
        assert (out / "reference.report").is_file()

    def test_invalid_scenario_exits_two(self, tmp_path, capsys):
        text = REFERENCE_FILE.replace("beta_s = 0.3", "beta_s = 1.5")
        code = main(["solve", str(write_scenario(tmp_path, text))])
        assert code == 2
        assert "beta_s" in capsys.readouterr().err

    def test_unreadable_scenario_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.scenario"
        path.write_bytes(b"\xff" + REFERENCE_FILE.encode())
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario")
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    def test_cli_overrides_scenario_options(self, tmp_path):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE + "seed = 3\n")
        out = tmp_path / "o"
        assert main(["solve", str(scenario_path), "--out-dir", str(out),
                     "--seed", "9"]) == 0
        assert "seed: 9" in (out / "reference.report").read_text()

    def test_strict_alpha_flag(self, tmp_path, capsys):
        text = REFERENCE_FILE.replace("alpha = 0.9", "alpha = 1.1")
        scenario_path = write_scenario(tmp_path, text)
        assert main(["solve", str(scenario_path), "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert main(["solve", str(scenario_path), "--out-dir", str(tmp_path),
                     "--no-strict-alpha"]) == 0

    def test_all_four_flags_override_file_values(self, tmp_path):
        text = REFERENCE_FILE.replace("alpha = 0.9", "alpha = 1.1") + (
            "oracle = false\ntolerance = 1e-3\nseed = 3\nstrict_alpha = true\n")
        scenario_path = write_scenario(tmp_path, text)
        out = tmp_path / "o"
        assert main(["solve", str(scenario_path), "--out-dir", str(out), "--oracle",
                     "--tolerance", "1e-7", "--seed", "9", "--no-strict-alpha"]) == 0
        report = (out / "reference.report").read_text()
        assert "seed: 9\n" in report
        assert f"tolerance: {1e-7:.17g}\n" in report
        assert "oracle_max_delta: " in report

    def test_bad_file_tolerance_exits_two_under_override(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE + "tolerance = 0\n")
        out = tmp_path / "out"
        assert main(["solve", str(scenario_path), "--out-dir", str(out),
                     "--tolerance", "1e-8"]) == 2
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
    def test_unwritable_out_dir_exits_two(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write artifacts to {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("blocked", ["reference.trajectory.csv", "reference.report"])
    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys, blocked):
        """An artifact path that is a directory fails its write: exit 2 with
        the failed file named, and the other artifact not left behind."""
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write artifacts to {out}: {out / blocked}: ")
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == [blocked]
        assert (out / blocked).is_dir()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8"])
    def test_bad_tolerance_override_exits_two(self, tmp_path, capsys, value):
        scenario_path = write_scenario(tmp_path, REFERENCE_FILE)
        out = tmp_path / "out"
        code = main(["solve", str(scenario_path), "--out-dir", str(out),
                     f"--tolerance={value}"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_escaping_name_writes_nothing(self, tmp_path, capsys):
        text = REFERENCE_FILE.replace("name = reference", "name = ../escaped")
        scenario_path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert main(["solve", str(scenario_path), "--out-dir", str(out)]) == 2
        assert "'name'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.scenario"]

    def test_name_the_file_system_cannot_store_exits_two(self, tmp_path):
        """Under an ASCII file-system encoding a non-ASCII name is refused
        as a scenario problem, before the solve, and nothing is written."""
        path = tmp_path / "case.scenario"
        path.write_bytes(REFERENCE_FILE.replace("name = reference", "name = café").encode())
        out = tmp_path / "out"
        result = run_in_ascii_locale("-m", "csrchain.cli", "solve", str(path),
                                     "--out-dir", str(out))
        err = result.stderr.decode("ascii", "replace")
        assert result.returncode == 2, err
        assert err.startswith("error: ") and "field 'name'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_golden_reference_artifacts(self, tmp_path):
        """The shipped reference scenario reproduces the committed artifacts
        byte for byte."""
        code = main(["solve", str(REPO / "scenarios" / "reference.scenario"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("reference.trajectory.csv", "reference.report"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_shipped_reference_scenario(self, tmp_path):
        code = main(["solve", "scenarios/reference.scenario",
                     "--out-dir", str(tmp_path)])
        assert code == 0
