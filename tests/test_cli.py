import json

import numpy as np
import pytest

from becqubit import cli, default_config, find_crossover, measure, model_from_config
from becqubit.constants import A_RB
from becqubit.params import _CONFIG_KEYS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestRateCommand:
    def test_first_row_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--points", "20", "--t-max-t0", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t_s", "gamma_per_s"]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0

    def test_free_gas_has_no_negative_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--a-b-over-arb", "0", "--points", "200", "--t-max-t0", "300"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) >= 0.0 for r in rows)

    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--points", "50", "--t-max-t0", "40")
        assert code == 0
        _, rows = parse_csv(out)
        from becqubit import build_rate_trace

        model = model_from_config(default_config())
        trace = build_rate_trace(model, 40 * model.t0, n_points=50)
        for row, t, g in zip(rows, trace.times, trace.gamma):
            assert float(row[0]) == pytest.approx(t, rel=1e-11)
            assert float(row[1]) == pytest.approx(g, rel=1e-11, abs=1e-18)


class TestDecoherenceCommand:
    def test_columns_and_ranges(self, capsys):
        code, out, _ = run_cli(capsys, "decoherence", "--points", "40", "--t-max-t0", "30")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t_s", "Gamma", "coherence"]
        assert float(rows[0][1]) == 0.0
        assert all(0.0 < float(r[2]) <= 1.0 for r in rows)
        assert all(float(r[1]) >= 0.0 for r in rows)


class TestDecoherenceMeasureConsistency:
    @pytest.mark.parametrize("a_b_arb, expect_intervals", [("0", False), ("1.0", True)])
    def test_nonmonotone_gamma_iff_intervals(self, capsys, a_b_arb, expect_intervals):
        # Gamma decreases somewhere in the trace exactly when measure reports
        # a negative-rate interval on the same window
        common = ["--a-b-over-arb", a_b_arb, "--t-max-t0", "400"]
        code, out_g, _ = run_cli(capsys, "decoherence", "--points", "900", *common)
        assert code == 0
        _, rows = parse_csv(out_g)
        Gamma = np.array([float(r[1]) for r in rows])
        nonmonotone = bool((np.diff(Gamma) < -1e-18).any())
        code, out_m, _ = run_cli(capsys, "measure", *common)
        assert code == 0
        _, rows = parse_csv(out_m)
        n_intervals = int(float({r[0]: r[1] for r in rows}["n_intervals"]))
        assert nonmonotone == (n_intervals > 0) == expect_intervals


class TestMeasureCommand:
    def test_free_gas_zero(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--a-b-over-arb", "0")
        assert code == 0
        _, rows = parse_csv(out)
        table = {r[0]: r[1] for r in rows}
        assert float(table["N"]) == 0.0
        assert float(table["n_intervals"]) == 0

    def test_matches_library_and_range(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--t-max-t0", "400")
        assert code == 0
        _, rows = parse_csv(out)
        table = {r[0]: r[1] for r in rows}
        model = model_from_config(default_config())
        direct = measure(model, 400 * model.t0)
        assert 0.0 <= float(table["N"]) <= 1.0
        assert float(table["N"]) == pytest.approx(direct.N, rel=1e-11)
        assert float(table["interval_1_a_s"]) == pytest.approx(direct.intervals[0].a, rel=1e-11)
        assert "# summary:" in out

    def test_header_records_the_cap_window(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--a-b-over-arb", "0")
        assert code == 0
        assert "# param.t_max_t0=7.10000000000e+02" in out.splitlines()


class TestCrossoverCommand:
    def test_no_crossover_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "crossover", "--a-b-max-arb", "0.01")
        assert code == 4
        assert "bracket" in err

    def test_3d_coarse(self, capsys):
        code, out, _ = run_cli(capsys, "crossover", "--tol-arb", "0.02")
        assert code == 0
        header, rows = parse_csv(out)
        value = dict(zip(header, rows[0]))
        assert 0.02 < float(value["a_crit_over_aRb"]) < 0.05
        assert int(value["dimension"]) == 3

    def test_header_records_the_cap_window(self, capsys):
        code, out, _ = run_cli(capsys, "crossover", "--tol-arb", "0.02")
        assert code == 0
        assert "# param.t_max_t0=7.10000000000e+02" in out.splitlines()

    def test_explicit_window(self, capsys):
        code, out, _ = run_cli(capsys, "crossover", "--tol-arb", "0.02", "--t-max-t0", "355")
        assert code == 0
        assert "# param.t_max_t0=3.55000000000e+02" in out.splitlines()
        header, rows = parse_csv(out)
        value = dict(zip(header, rows[0]))
        t0 = model_from_config(default_config()).t0
        direct = find_crossover(3, tol=0.02 * A_RB, t_max=355.0 * t0)
        assert float(value["a_crit_m"]) == pytest.approx(direct.a_crit, rel=1e-11)
        assert int(value["evaluations"]) == direct.evaluations

    def test_zero_window_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "crossover", "--t-max-t0", "0")
        assert code == 2
        assert "t_max" in err


class TestSweepCommand:
    def test_single_point_matches_measure(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "a_B", "--grid", "1.0")
        assert code == 0
        _, rows = parse_csv(out)
        direct = measure(model_from_config(default_config()))
        assert float(rows[0][1]) == pytest.approx(direct.N, rel=1e-11)
        assert rows[0][2] == "ok"

    def test_duplicate_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "a_B", "--grid", "1.0,1.0")
        assert code == 2
        assert "duplicate" in err

    def test_empty_grid_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "a_B", "--grid", ",")
        assert code == 2
        assert "empty" in err and out == ""

    def test_row_failure_sets_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "L", "--grid=-50,75")
        assert code == 3
        _, rows = parse_csv(out)
        assert rows[0][2].startswith("error") and rows[1][2] == "ok"


class TestSpectrumCommand:
    def test_columns_and_fit_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega-min-per-s", "1e3", "--omega-max-per-s", "1e6",
            "--points", "50",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["omega_per_s", "J"]
        assert all(float(r[1]) >= 0.0 for r in rows)
        assert "# s_fit=" in out

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_phonon_regime_exponent(self, capsys, dimension):
        # far below u E0/hbar, J ~ q^(D+1) while dE/dq -> sqrt(u/2): s = D + 1
        code, out, err = run_cli(
            capsys, "spectrum", "--dimension", str(dimension), "--omega-min-per-s", "1e-5",
            "--omega-max-per-s", "1", "--points", "50",
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        assert all(float(r[1]) > 0.0 for r in rows)
        s_fit = float(next(ln for ln in out.splitlines() if ln.startswith("# s_fit=")).split("=")[1].split()[0])
        assert s_fit == pytest.approx(dimension + 1, abs=1e-6)


class TestToyCommand:
    def test_critical(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--critical")
        assert code == 0
        header, rows = parse_csv(out)
        value = dict(zip(header, rows[0]))
        assert float(value["s_crit"]) == pytest.approx(2.0, abs=0.05)

    def test_ohmic_trace_nonnegative(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--s", "1", "--points", "200", "--t-max-wc", "30")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0
        assert all(float(r[1]) >= -1e-15 for r in rows)

    def test_short_grid_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "toy", "--points", "10")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 10


class TestVerifyPairsCommand:
    def test_ratio_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "verify-pairs", "--pairs", "150", "--t-max-t0", "400")
        assert code == 0
        header, rows = parse_csv(out)
        value = dict(zip(header, rows[0]))
        assert float(value["max_ratio"]) <= 1.0 + 1e-9

    def test_seed_is_read(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-pairs", "--pairs", "120", "--t-max-t0", "300", "--seed", "5"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert "# param.seed=5" in out
        assert dict(zip(header, rows[0]))["seed"] == "5"

    def test_window_sets_the_digest(self, capsys):
        # two windows give two regains, so they must give two manifests
        digests = []
        for t_max_t0, recorded in (("120", "1.20000000000e+02"), ("400", "4.00000000000e+02")):
            code, out, _ = run_cli(capsys, "verify-pairs", "--pairs", "100", "--t-max-t0", t_max_t0)
            assert code == 0
            lines = out.splitlines()
            assert f"# param.t_max_t0={recorded}" in lines
            digests.append(next(line for line in lines if line.startswith("# digest=")))
        assert digests[0] != digests[1]

    def test_no_interval_regain_is_a_float(self, capsys):
        # the optimal regain is measure's N_blp, the float 0.0 when the window
        # holds no negative interval
        code, out, _ = run_cli(capsys, "verify-pairs", "--pairs", "100", "--t-max-t0", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["100", "0.00000000000e+00", "0.00000000000e+00", "0.00000000000e+00", "20120731"]]


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a_B_over_aRb=0\ndimension=3\ntau_nm=45\n")
        # flag overrides the file value of a_B
        code, out, _ = run_cli(
            capsys, "measure", "--config", str(cfg), "--a-b-over-arb", "1.0",
            "--t-max-t0", "400",
        )
        assert code == 0
        assert "config.a_B=5.30000000000e-09" in out

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume_m3=1\n")
        code, _, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_lattice_key_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text("lambda_lattice_nm=532\n")
        code, _, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert code == 2
        assert "unknown key 'lambda_lattice_nm'" in err

    def test_conflicting_length_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--a-b-nm", "5.3", "--a-b-over-arb", "1.0")
        assert code == 2
        assert "conflict" in err

    def test_invalid_physics_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--tau-nm", "-45")
        assert code == 2

    def test_missing_config_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--config", "/nonexistent/x.cfg")
        assert code == 2


# one value per config-file key, in that key's unit, each moving the default config
PARITY_VALUES = {
    "dimension": "2",
    "m_B_u": "86.9",
    "m_A_u": "22.0",
    "a_B_nm": "4.0",
    "a_B_a0": "80",
    "a_B_over_aRb": "0.7",
    "a_AB_nm": "2.5",
    "a_AB_a0": "40",
    "a_AB_over_aRb": "0.5",
    "n0_per_m3": "2e20",
    "tau_nm": "40",
    "L_nm": "80",
    "a_z_nm": "90",
    "a_perp_nm": "95",
}


class TestConfigFlags:
    @pytest.mark.parametrize("key", list(_CONFIG_KEYS))
    def test_flag_resolves_like_config_file_line(self, tmp_path, key):
        value = PARITY_VALUES[key]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key}={value}\n")
        parser = cli.build_parser()
        from_file = cli._resolve_config(parser.parse_args(["measure", "--config", str(cfg)]))
        from_flag = cli._resolve_config(parser.parse_args(["measure", cli._flag(key), value]))
        assert from_flag == from_file
        assert from_file != default_config()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--seed", "5"],
            ["toy", "--dimension", "2"],
            ["toy", "--config", "/nonexistent.cfg"],
            ["rate", "--lambda-lattice-nm", "532"],
        ],
    )
    def test_options_nothing_reads_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--points", "0", "--t-max-t0", "5"],
            ["decoherence", "--points", "0", "--t-max-t0", "5"],
            ["toy", "--points", "0"],
            ["toy", "--points", "1"],
        ],
    )
    def test_grid_below_two_points_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "n_points must be at least 2" in err

    @pytest.mark.parametrize("command", ["rate", "measure"])
    def test_zero_window_exit_2(self, capsys, command):
        # an explicit zero window is an error, not a request for the default window
        code, _, err = run_cli(capsys, command, "--t-max-t0", "0")
        assert code == 2
        assert "t_max must be positive" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["rate", "decoherence", "measure", "crossover", "verify-pairs"])
    def test_non_finite_window_exit_2(self, capsys, command, value):
        code, _, err = run_cli(capsys, command, "--t-max-t0", value)
        assert code == 2
        assert "t_max must be positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--t-max-t0", "1e-16"],
            ["toy", "--t-max-wc", "1e-15"],
            ["measure", "--t-max-t0", "1e-14"],
            ["crossover", "--t-max-t0", "1e-14"],
            ["rate", "--points", "2", "--t-max-t0", "1e-310"],  # the layout's N is infinite
            ["rate", "--t-max-t0", "1e-318"],  # the grid step is 0
        ],
    )
    def test_window_too_short_for_its_grid_exit_2(self, capsys, argv):
        # the trace transform's chirp takes its angles modulo 2N in int64, and
        # these windows need N >= 2^62 uniform-panel bins
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "the window t_max = " in err and "is too short for a grid step of" in err

    @pytest.mark.parametrize("argv, expected", [(["measure"], 0), (["crossover", "--tol-arb", "2e-2"], 4)])
    def test_shortest_working_window_still_runs(self, capsys, argv, expected):
        # 1e-13 t0 keeps N below 2^62: measure finds no interval in it, and the
        # top of the crossover bracket is Markovian there (a bracket failure)
        code, _, err = run_cli(capsys, *argv, "--t-max-t0", "1e-13")
        assert code == expected
        assert "too short" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [["crossover", "--tol-arb"], ["toy", "--critical", "--tol"]])
    def test_non_finite_tol_exit_2(self, capsys, argv, value):
        code, _, err = run_cli(capsys, *argv, value)
        assert code == 2
        assert "tol must be positive and finite" in err


class TestConvergenceExit:
    def test_rate_nonconvergence_exit_3(self, capsys, monkeypatch):
        from becqubit.engine import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("forced for the exit-code path", 1.0)

        monkeypatch.setattr("becqubit.cli.engine.build_rate_trace", boom)
        code, _, err = run_cli(capsys, "rate", "--t-max-t0", "5")
        assert code == 3
        assert "non-convergence" in err


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["rate", "--points", "30", "--t-max-t0", "10"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_sidecar_digest_matches_header(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert cli.main(["measure", "--t-max-t0", "300", "--out", str(out)]) == 0
        capsys.readouterr()
        header_digest = None
        for line in out.read_text().splitlines():
            if line.startswith("# digest="):
                header_digest = line.split("=", 1)[1]
                break
        sidecar = json.loads((out.parent / (out.name + ".manifest.json")).read_text())
        assert header_digest == sidecar["digest"]
        assert "wall_clock_s" in sidecar

    def test_manifest_digest_sensitive_to_config(self, capsys):
        _, out1, _ = run_cli(capsys, "rate", "--points", "5", "--t-max-t0", "2")
        _, out2, _ = run_cli(
            capsys, "rate", "--points", "5", "--t-max-t0", "2", "--l-nm", "100"
        )
        digest1 = [l for l in out1.splitlines() if l.startswith("# digest=")][0]
        digest2 = [l for l in out2.splitlines() if l.startswith("# digest=")][0]
        assert digest1 != digest2

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "rate", "--points", "5", "--t-max-t0", "2")
        _, rows = parse_csv(out)
        cell = rows[1][1]
        mantissa = cell.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12
