import csv
import json
import math

import numpy as np
import pytest

from cdlab import closed_form_C, evolve, recurrence_coeffs, spectral_radius
from cdlab.cli import (
    ExperimentConfig,
    cmd_figure,
    cmd_predict,
    cmd_solve,
    cmd_table1,
    figure_expected,
    main,
)

SMALL = dict(deltas=(0.5, 0.2), replicates=3, max_epochs=30_000)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(tol=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(deltas=())
        with pytest.raises(ValueError):
            ExperimentConfig(deltas=(2.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(format="xml")


class TestTable1:
    def test_small_grid_rates_near_predictions(self):
        rows = cmd_table1(ExperimentConfig(**SMALL))
        for row in rows:
            assert abs(row.rho_ccd_emp - row.rho_C_sq) <= 2e-3
            assert abs(row.rho_rpcd_emp - row.rho_M) <= 0.03
            assert row.rho_rpcd_emp_std >= 0.0

    def test_predicted_columns_independent_of_replicates(self):
        a = cmd_table1(ExperimentConfig(deltas=(0.5,), replicates=2, max_epochs=30_000))[0]
        b = cmd_table1(ExperimentConfig(deltas=(0.5,), replicates=4, max_epochs=30_000, seed=9))[0]
        assert a.rho_C_sq == b.rho_C_sq
        assert a.rho_rcd_pred == b.rho_rcd_pred
        assert a.rho_M == b.rho_M


class TestMainOutputs:
    def test_table1_byte_identical_and_round_trips(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["table1", "--delta", "0.5", "--delta", "0.2", "--replicates", "3",
                "--max-epochs", "30000", "--seed", "1"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "\r" not in text and text.endswith("\n")
        with open(out1, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        rows = cmd_table1(ExperimentConfig(deltas=(0.5, 0.2), replicates=3,
                                           max_epochs=30_000, seed=1))
        assert len(parsed) == 2
        for got, want in zip(parsed, rows):
            assert float(got["delta"]) == want.delta
            assert float(got["rho_C_sq"]) == want.rho_C_sq
            assert float(got["rho_rpcd_emp"]) == want.rho_rpcd_emp

    def test_table1_json_config_echo(self, tmp_path):
        out = tmp_path / "t.json"
        main(["table1", "--delta", "0.5", "--replicates", "2", "--max-epochs", "20000",
              "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["config"]["replicates"] == 2
        assert payload["config"]["deltas"] == [0.5]
        assert payload["rows"][0]["delta"] == 0.5

    def test_predict_identity_model(self, capsys):
        main(["predict", "--n", "100", "--delta", "1.0", "--format", "json"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["rho_M"] == 0.0
        assert report["rho_C_sq"] == 0.0

    def test_predict_values(self):
        report = cmd_predict(100, 0.8)
        assert report["rho_M"] == pytest.approx(0.1162, abs=5e-5)
        report = cmd_predict(100, 0.05)
        assert report["sd_rate"] == pytest.approx(1 - 0.05 / 95.05, abs=1e-12)
        assert report["d1"] == pytest.approx(recurrence_coeffs(100, 0.05).d1, abs=0.0)

    def test_predict_csv_round_trip(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["predict", "--n", "50", "--delta", "0.3", "--output", str(out)])
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rho_M"]) == cmd_predict(50, 0.3)["rho_M"]


class TestSolve:
    def test_zero_start_single_row(self):
        rows = cmd_solve(10, 0.3, "ccd", x0_mode="zero")
        assert rows == [{"epoch": 0, "f": 0.0, "f_over_f0": 0.0}]

    def test_rpcd_terminates_and_first_drop_in_expectation(self):
        # single seeded run terminates at the tolerance
        rows = cmd_solve(100, 0.05, "rpcd", seed=1)
        assert rows[-1]["f"] <= 1e-8
        # the mean first-epoch decrease matches the ~2*delta prediction
        # within a factor of two (ratio of replicate means: individual
        # ratios are skewed by starts nearly orthogonal to the ones
        # direction)
        f0s, f1s = [], []
        for rep in range(100):
            r = cmd_solve(100, 0.05, "rpcd", seed=1000 + rep, max_epochs=1, tol=1e-300)
            f0s.append(r[0]["f"])
            f1s.append(r[1]["f"])
        drop = np.mean(f1s) / np.mean(f0s)
        assert 0.05 <= drop <= 0.2

    def test_ccd_epoch_count_tracks_rate_prediction(self):
        # epochs to tolerance fall short of the pure-rate prediction
        # log(tol/f0)/log(rho(C)^2) by the transient decay only
        rows = cmd_solve(100, 0.05, "ccd", seed=3)
        epochs = len(rows) - 1
        rho2 = spectral_radius(closed_form_C(100, 0.05)) ** 2
        predicted = math.log(1e-8 / rows[0]["f"]) / math.log(rho2)
        assert 0.6 * predicted <= epochs <= predicted

    def test_solve_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["solve", "--n", "20", "--delta", "0.5", "--variant", "rcd",
              "--seed", "4", "--output", str(out)])
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["epoch"] == "0"
        assert float(parsed[0]["f_over_f0"]) == 1.0
        fs = [float(r["f"]) for r in parsed]
        assert fs[-1] <= 1e-8
        assert all(b <= a for a, b in zip(fs, fs[1:]))


class TestFigures:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cmd_figure("bogus", ExperimentConfig())

    def test_lu_small(self):
        cfg = ExperimentConfig(n=16, seed=3, epochs_budget=400, tol=1e-10)
        rows = cmd_figure("lu", cfg, condition=100.0, sequences=4)
        assert rows[0] == {"epoch": 0, "ccd_rel": 1.0, "rpcd_rel": 1.0}
        ccd = [r["ccd_rel"] for r in rows]
        rpcd = [r["rpcd_rel"] for r in rows]
        assert all(np.isfinite(ccd)) and all(np.isfinite(rpcd))
        assert ccd[-1] < 1e-6 and rpcd[-1] < 1e-6
        # expected-value curves decay monotonically for these spectra
        assert all(b <= a * (1 + 1e-12) for a, b in zip(ccd, ccd[1:]))

    def test_different_n_structure(self):
        cfg = ExperimentConfig(seed=0, epochs_budget=50)
        rows = cmd_figure("different_n", cfg, delta=0.001, ns=(10, 20))
        variants = {(r["variant"], r["n"]) for r in rows}
        assert variants == {(v, n) for v in ("ccd", "rpcd", "rcd") for n in (10, 20)}
        by_key = {}
        for r in rows:
            by_key.setdefault((r["variant"], r["n"]), []).append(r)
        for series in by_key.values():
            assert series[0]["f_over_f0"] == 1.0
            assert len(series) == 51

    def test_expected_realized_and_closed_form_share_slope(self):
        cfg = ExperimentConfig(n=100, seed=2)
        rows = figure_expected(cfg, delta=0.05)
        realized = np.array([r["f_realized"] for r in rows])
        closed = np.array([r["f_expected"] for r in rows])
        w = 10
        rate_real = (realized[-1] / realized[-1 - w]) ** (1 / w)
        rate_closed = (closed[-1] / closed[-1 - w]) ** (1 / w)
        assert abs(rate_real - rate_closed) <= 0.02

    def test_expected_column_recomputes_from_recurrence(self):
        cfg = ExperimentConfig(n=50, seed=5)
        rows = figure_expected(cfg, delta=0.1)
        M = recurrence_coeffs(50, 0.1)
        for r in rows[:20]:
            pair = evolve(M, 0.1, r["epoch"])
            assert r["f_expected"] == 0.5 * 50 * (pair.eta + pair.nu)

    def test_figure_csv_round_trip(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure", "expected", "--n", "30", "--delta", "0.2", "--seed", "8",
              "--output", str(out)])
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        rows = figure_expected(ExperimentConfig(n=30, seed=8), delta=0.2)
        assert len(parsed) == len(rows)
        assert float(parsed[3]["f_expected"]) == rows[3]["f_expected"]
