import csv
import functools
import inspect
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdlab import (
    OrderingPolicy,
    PermInvariantQuadratic,
    build_log_uniform_spectrum,
    closed_form_C,
    derive_seed,
    empirical_rate,
    epoch_map,
    evolve,
    recurrence_coeffs,
    rho_C,
    rho_M,
    run,
)
from cdlab.cli import (
    DIFFERENT_N,
    TABLE1_DELTAS,
    _in_processes,
    _parser,
    _seeded_start,
    _valid_rates,
    cmd_predict,
    cmd_solve,
    cmd_table1,
    figure_different_n,
    figure_expected,
    figure_lu,
    main,
)
from cdlab.engine import _cyclic_spectrum, _cyclic_tail, _epoch_dense, _runs
from conftest import eig_radius

SMALL = dict(deltas=(0.5, 0.2), replicates=3, max_epochs=30_000)


class TestConfig:
    def test_negative_epoch_limits_fail_from_cli(self, capsys):
        for argv in (["table1", "--max-epochs", "-3"],
                     ["figure", "lu", "--epochs-budget", "-3"],
                     ["solve", "--delta", "0.5", "--max-epochs", "-3"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_figure_lu_rejects_delta(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["figure", "lu", "--delta", "0.1", "--n", "8"])
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--delta" in out.err
        main(["figure", "different_n", "--delta", "0.01", "--epochs-budget", "2",
              "--format", "json"])
        assert json.loads(capsys.readouterr().out)["config"]["delta"] == 0.01


    @pytest.mark.parametrize("argv", [
        ["table1", "--epochs-budget", "5"],
        ["figure", "lu", "--replicates", "2"],
        ["figure", "lu", "--max-epochs", "5"],
        ["figure", "different_n", "--n", "10"],
        ["figure", "different_n", "--sequences", "2"],
        ["figure", "different_n", "--condition", "10"],
        ["figure", "different_n", "--replicates", "2"],
        ["figure", "different_n", "--max-epochs", "5"],
        ["figure", "expected", "--epochs-budget", "5"],
        ["figure", "expected", "--condition", "10"],
        ["figure", "expected", "--sequences", "2"],
        ["figure", "expected", "--replicates", "2"],
        ["predict", "--delta", "0.5", "--tol", "1e-6"],
        ["predict", "--delta", "0.5", "--replicates", "2"],
        ["predict", "--delta", "0.5", "--max-epochs", "5"],
        ["predict", "--delta", "0.5", "--epochs-budget", "5"],
        ["solve", "--delta", "0.5", "--replicates", "2"],
        ["solve", "--delta", "0.5", "--epochs-budget", "5"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and argv[-2] in out.err

    @pytest.mark.parametrize("argv, message", [pytest.param(a, m, id=" ".join(a)) for a, m in [
        (["table1", "--replicates", "0"], "must be >= 1, got 0"),
        (["table1", "--delta", "2.5"], "delta must lie in"),
        (["table1", "--tol", "0"], "must be > 0, got 0"),
        (["table1", "--tol", "-1e-3"], "must be > 0, got -1e-3"),
        (["table1", "--max-epochs", "-1"], "must be >= 0, got -1"),
        (["figure", "lu", "--sequences", "0"], "must be >= 1, got 0"),
        (["figure", "lu", "--tol", "0"], "must be > 0, got 0"),
        (["figure", "lu", "--condition", "inf"], "condition must be finite and > 1, got inf"),
        (["figure", "lu", "--condition", "-inf"], "condition must be finite and > 1, got -inf"),
        (["figure", "lu", "--condition", "-INF"], "condition must be finite and > 1, got -inf"),
        (["table1", "--tol", "-inf"], "argument --tol: must be > 0, got -inf"),
        (["table1", "--tol", "-nan"], "argument --tol: must be > 0, got -nan"),
        (["table1", "--n", "-inf"], "argument --n: invalid int value: '-inf'"),
        (["solve", "--delta", "-Infinity"], "delta must lie in (0, n/(n-1))"),
        (["figure", "different_n", "--epochs-budget", "-1"], "must be >= 0, got -1"),
        (["figure", "different_n", "--delta", "1.05"],
         "delta must lie in (0, n/(n-1)) = (0, 1.0256410256410255) for n = 40, got 1.05"),
        (["figure", "expected", "--delta", "1.5"], "delta must lie in"),
        (["figure", "expected", "--max-epochs", "-1"], "must be >= 0, got -1"),
        (["figure", "bogus"], "invalid choice: 'bogus'"),
        (["predict", "--n", "1", "--delta", "0.5"], "n must be >= 2, got 1"),
        (["solve", "--delta", "0.5", "--tol", "0"], "must be > 0, got 0"),
        (["solve", "--n", "10", "--delta", "0.5", "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
        (["predict", "--delta", "0.5", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["solve", "--delta", "-1e-3"], "delta must lie in (0, n/(n-1))"),
        (["figure", "lu", "--output", "no_such_dir/lu.csv"],
         "argument --output: must be a file in an existing directory, got no_such_dir/lu.csv"),
        (["predict", "--delta", "0.5", "--output", "."],
         "argument --output: must be a file in an existing directory, got ."),
        (["figure", "lu", "--output", ""],
         "argument --output: must be a file in an existing directory, got "),
    ]])
    def test_invalid_value_is_usage_error(self, argv, message, capsys):
        # a negative value in exponent notation, or -inf, -infinity or -nan in
        # any case, reaches its domain check too
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "error:" in out.err and message in out.err

    def test_different_n_checks_every_n_before_the_first_run(self, monkeypatch, capsys):
        # delta = 1.05 is in the window of n = 10 and 20, not of n = 40
        import cdlab.cli

        def refuse(*args, **kwargs):
            raise AssertionError("run before the delta check")

        monkeypatch.setattr(cdlab.cli, "_seeded_run", refuse)
        with pytest.raises(SystemExit) as err:
            main(["figure", "different_n", "--delta", "1.05"])
        assert err.value.code == 2
        assert "for n = 40, got 1.05" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1", "--replicates", "0"],
        ["table1", "--tol", "nan"],
        ["figure", "lu", "--sequences", "0"],
        ["figure", "different_n", "--epochs-budget", "-1"],
        ["solve", "--delta", "0.5", "--max-epochs", "-1"],
    ], ids=" ".join)
    def test_out_of_domain_value_names_its_flag(self, argv, capsys):
        # the flag table checks each domain as it parses
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and argv[-2].lstrip("-") in out.err

    @pytest.mark.parametrize("argv", [
        ["table1", "--n", "10", "--delta", "0.5", "--replicates", "2", "--max-epochs", "0"],
        ["figure", "lu", "--n", "8", "--epochs-budget", "0"],
        ["figure", "different_n", "--epochs-budget", "0"],
        ["figure", "expected", "--n", "10", "--max-epochs", "0"],
        ["solve", "--delta", "0.5", "--max-epochs", "0"],
    ], ids=" ".join)
    def test_zero_epoch_limits_are_accepted(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") >= 2

    @pytest.mark.parametrize("argv, func, reads", [
        (["table1"], cmd_table1, ("n", "deltas", "seed", "replicates", "tol", "max_epochs")),
        (["figure", "lu"], figure_lu,
         ("n", "seed", "tol", "epochs_budget", "condition", "sequences")),
        (["figure", "different_n"], figure_different_n, ("delta", "seed", "tol", "epochs_budget")),
        (["figure", "expected"], figure_expected, ("n", "delta", "seed", "tol", "max_epochs")),
        (["predict", "--delta", "0.5"], cmd_predict, ("n", "delta")),
        (["solve", "--delta", "0.5"], cmd_solve,
         ("n", "delta", "variant", "seed", "tol", "max_epochs", "x0")),
    ], ids=lambda v: " ".join(v) + "-" if isinstance(v, list) else "")  # stable ids: "table1---"
    def test_flag_defaults_are_function_defaults(self, argv, func, reads):
        # an omitted flag takes the keyword default of the function the
        # command calls, so cmd_table1() is table1 at its CLI defaults,
        # and every parameter is a flag
        args = _parser().parse_args(argv)
        params = inspect.signature(func).parameters
        assert args.func is func
        assert args.reads == reads
        assert tuple(params) == reads
        for name in reads:
            if params[name].default is not inspect.Parameter.empty:
                assert getattr(args, name) == params[name].default, name

    @pytest.mark.parametrize("argv, echo", [
        (["table1", "--n", "10", "--max-epochs", "40", "--replicates", "2"],
         {"n": 10, "deltas": list(TABLE1_DELTAS), "seed": 0, "replicates": 2, "tol": 1e-8,
          "max_epochs": 40}),
        (["figure", "lu", "--n", "8", "--epochs-budget", "3", "--seed", "2"],
         {"figure": "lu", "n": 8, "seed": 2, "tol": 1e-8, "epochs_budget": 3,
          "condition": 1e4, "sequences": 10}),
        (["figure", "different_n", "--epochs-budget", "2"],
         {"figure": "different_n", "delta": 0.001, "seed": 0, "tol": 1e-8, "epochs_budget": 2}),
        (["figure", "expected", "--n", "10", "--max-epochs", "3", "--tol", "1e-6"],
         {"figure": "expected", "n": 10, "delta": 0.05, "seed": 0, "tol": 1e-6, "max_epochs": 3}),
        (["predict", "--n", "10", "--delta", "0.5", "--seed", "7"], {"n": 10, "delta": 0.5}),
        (["solve", "--n", "10", "--delta", "0.5", "--max-epochs", "3", "--variant", "rpcd"],
         {"n": 10, "delta": 0.5, "variant": "rpcd", "seed": 0, "tol": 1e-8, "max_epochs": 3,
          "x0": "gaussian"}),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_json_config_echo_lists_the_flags_read(self, argv, echo, capsys):
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == echo

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [line.split("#")[0]
                    for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                    for line in block.splitlines() if line.startswith("cdlab ")]
        assert len(commands) >= 7
        parser = _parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])


class TestTable1:
    def test_small_grid_rates_near_predictions(self):
        rows = cmd_table1(**SMALL)
        for row in rows:
            assert abs(row["rho_ccd_emp"] - row["rho_C_sq"]) <= 2e-3
            assert abs(row["rho_rpcd_emp"] - row["rho_M"]) <= 0.03
            assert row["rho_rpcd_emp_std"] >= 0.0

    @pytest.mark.parametrize("delta, window", [(0.8, 40), (0.5, 152)])
    def test_ccd_rate_over_whole_periods_of_the_slowest_pair_is_rho_C_sq(self, delta, window):
        # C's slowest eigenvalues are a complex pair |lam| e^(+-i theta), so f
        # oscillates with a period of pi/theta epochs (13.3 at delta = 0.8,
        # 50.7 at 0.5): the 10-epoch rate of `rho_ccd_emp` carries its phase,
        # and a window of three whole periods closes the gap to rho(C)^2.
        # The default table's cyclic start: CLI seed 0, stream = delta index.
        n = 100
        log_lam = n * _cyclic_spectrum(n, delta)
        theta = abs(log_lam[np.argmax(log_lam.real)].imag)
        assert round(3 * math.pi / theta) == window
        stream = TABLE1_DELTAS.index(delta)
        _, x0 = _seeded_start(n, "ccd", 0, stream)
        f = run(PermInvariantQuadratic(n, delta), OrderingPolicy("ccd"), x0, 500_000,
                1e-8).f_per_epoch
        (printed,) = _valid_rates(n, delta, stream, "ccd", seed=0, replicates=20, tol=1e-8,
                                  max_epochs=500_000)
        assert empirical_rate(f) == pytest.approx(printed, rel=1e-12)
        rho_sq = rho_C(n, delta) ** 2
        assert abs(empirical_rate(f, window) - rho_sq) <= 1e-5
        if delta == 0.8:
            assert abs(printed - rho_sq) > 1e-4

    def test_predicted_columns_independent_of_replicates(self):
        a = cmd_table1(deltas=(0.5,), replicates=2, max_epochs=30_000)[0]
        b = cmd_table1(deltas=(0.5,), replicates=4, max_epochs=30_000, seed=9)[0]
        assert a["rho_C_sq"] == b["rho_C_sq"]
        assert a["rho_rcd_pred"] == b["rho_rcd_pred"]
        assert a["rho_M"] == b["rho_M"]

    def test_invalid_run_input_propagates(self, capsys):
        # only a failed or too-short run drops a replicate; bad input to
        # run() is an error, not a column of NaN
        with pytest.raises(ValueError):
            cmd_table1(n=10, deltas=(0.5,), replicates=2, max_epochs=-1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("replicates", [0, -2])
    def test_replicates_below_one_rejected(self, replicates, capsys):
        with pytest.raises(ValueError, match=f"replicates must be >= 1, got {replicates}"):
            cmd_table1(n=10, deltas=(0.5,), replicates=replicates)
        assert capsys.readouterr().err == ""

    def test_figure_lu_sequences_below_one_rejected(self):
        with pytest.raises(ValueError, match="sequences must be >= 1, got 0"):
            figure_lu(n=4, sequences=0)

    def test_every_delta_checked_before_the_first_run(self, monkeypatch):
        import cdlab.cli

        def refuse(*args, **kwargs):
            raise AssertionError("run before the delta check")

        monkeypatch.setattr(cdlab.cli, "run", refuse)
        with pytest.raises(ValueError):
            cmd_table1(n=10, deltas=(0.5, 2.0))

    def test_empty_cells_reported_on_stderr(self, tmp_path, capsys):
        argv = ["table1", "--n", "20", "--delta", "1.0", "--delta", "0.5", "--max-epochs", "5"]
        assert main(argv) == 0
        out = capsys.readouterr()
        rows = list(csv.DictReader(out.out.splitlines()))
        assert [row["delta"] for row in rows] == ["1.0", "0.5"]
        assert all(row[col] == "nan" for row in rows
                   for col in ("rho_ccd_emp", "rho_rcd_emp", "rho_rpcd_emp"))
        messages = out.err.splitlines()
        assert len(messages) == 6
        for delta in ("1.0", "0.5"):
            for variant, tried in (("ccd", 1), ("rcd", 20), ("rpcd", 20)):
                assert sum(f"{variant} replicate at delta={delta} ({tried} tried)" in m
                           for m in messages) == 1
        # the stderr report leaves the output file as it was
        path = tmp_path / "t.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_text() == out.out
        assert capsys.readouterr().err == out.err

    def test_full_cells_report_nothing(self, capsys):
        rows = cmd_table1(n=30, deltas=(0.5,), replicates=2)
        assert math.isfinite(rows[0]["rho_rpcd_emp_std"])
        assert capsys.readouterr().err == ""

    def test_numerical_error_drops_the_replicate(self, monkeypatch, capsys):
        import cdlab.cli
        from cdlab.errors import NumericalError

        def diverge(*args, **kwargs):
            raise NumericalError("nonfinite objective")

        def all_fail(model, policy, starts, *args):
            return [NumericalError("nonfinite objective")] * len(starts)

        # the cyclic cell comes from _cyclic_tail and the random cells from
        # _runs, which returns a failed replicate's NumericalError
        monkeypatch.setattr(cdlab.cli, "_cyclic_tail", diverge)
        monkeypatch.setattr(cdlab.cli, "_runs", all_fail)
        row = cmd_table1(n=10, deltas=(0.5,), replicates=2)[0]
        assert math.isnan(row["rho_ccd_emp"]) and math.isnan(row["rho_rcd_emp"])
        assert math.isnan(row["rho_rpcd_emp"])
        assert math.isfinite(row["rho_C_sq"])
        assert len(capsys.readouterr().err.splitlines()) == 3

    def test_empty_rpcd_cell_counts_every_replicate(self, capsys):
        # one _runs call runs the cell; stderr names the replicates tried
        rates = _valid_rates(20, 0.5, 0, "rpcd", seed=0, replicates=20, tol=1e-8, max_epochs=5)
        assert rates.size == 0
        row = cmd_table1(n=20, deltas=(0.5,), replicates=20, max_epochs=5)[0]
        assert math.isnan(row["rho_rpcd_emp"])
        err = capsys.readouterr().err
        assert "no valid rpcd replicate at delta=0.5 (20 tried)" in err

    @pytest.mark.parametrize("n", [10, 100])
    def test_rcd_predictions_bound_the_runs_above_delta_1(self, n):
        # for delta > 1 the smallest eigenvalue of A is n(1-delta)+delta, not
        # delta; each predicted rcd rate is NaN or no faster than the
        # replicate mean minus the replicate standard deviation
        deltas = tuple(1.0 + t * (n / (n - 1) - 1.0) for t in (0.1, 0.5, 0.9))
        rows = cmd_table1(n=n, deltas=deltas)
        for stream, (delta, row) in enumerate(zip(deltas, rows)):
            rates = _valid_rates(n, delta, stream, "rcd", seed=0, replicates=20, tol=1e-8,
                                 max_epochs=500_000)
            assert rates.mean() == row["rho_rcd_emp"]
            floor = rates.mean() - rates.std(ddof=1)
            for predicted in (cmd_predict(n, delta)["rcd_epoch"], row["rho_rcd_pred"]):
                assert math.isnan(predicted) or predicted >= floor

    def test_default_table_runs_only_the_random_orders(self, monkeypatch):
        # cyclic descent is one call of _cyclic_tail per delta, and the 20
        # replicates of each random ordering one call of _runs per delta; no
        # cell goes through run().  One CPU keeps every call in this process,
        # where the lists can count it.
        import cdlab.cli
        import cdlab.engine

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        tails, stacks = [], []

        def counted_tail(*args):
            tails.append(args[0].delta)
            return _cyclic_tail(*args)

        def counted_stack(model, policy, starts, *args):
            stacks.append((policy.kind, len(starts)))
            return _runs(model, policy, starts, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("run() called")

        monkeypatch.setattr(cdlab.cli, "_cyclic_tail", counted_tail)
        monkeypatch.setattr(cdlab.cli, "_runs", counted_stack)
        monkeypatch.setattr(cdlab.cli, "run", refuse)
        monkeypatch.setattr(cdlab.engine, "run", refuse)
        cmd_table1()
        assert tails == list(TABLE1_DELTAS)
        assert stacks == [("rcd", 20), ("rpcd", 20)] * 6

    def test_default_table_calls_no_lapack(self, monkeypatch):
        # every cyclic cell of the default grid comes from the spectrum of C:
        # no epoch map, no solve
        import cdlab.engine

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(cdlab.engine, "epoch_map", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        rows = cmd_table1()
        assert all(math.isfinite(row["rho_ccd_emp"]) for row in rows)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestInProcesses:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # fork whatever the host's CPU count, and fail rather than hang
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def expire(signum, frame):
            raise TimeoutError("forked jobs still running after 30 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def in_child(err):
        """A job that raises `err` in a forked child and returns 0.5 in this process."""
        parent = os.getpid()

        def job(*args, **kwargs):
            if os.getpid() != parent:
                raise err
            return np.array([0.5])
        return job

    def test_results_in_job_order_past_the_pipe_buffer(self, two_cpus):
        # each result pickles to 160 kB, more than a pipe holds unread
        jobs = [functools.partial(np.full, 20_000, k) for k in range(6)]
        results = list(_in_processes(jobs, [1, 5, 2, 4, 3, 6]))
        assert [r[0] for r in results] == list(range(6))

    def test_value_error_in_a_child_is_a_usage_error(self, two_cpus, monkeypatch, capsys):
        import cdlab.cli

        monkeypatch.setattr(cdlab.cli, "_valid_rates", self.in_child(ValueError("bad cell")))
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--n", "10", "--delta", "0.5"])
        assert exit_info.value.code == 2
        assert "error: bad cell" in capsys.readouterr().err

    def test_assertion_error_in_a_child_keeps_its_type(self, two_cpus):
        job = self.in_child(AssertionError("child assertion"))
        with pytest.raises(AssertionError, match="child assertion"):
            list(_in_processes([job, job, job], [3, 2, 1]))

    def test_one_cpu_never_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", refuse)
        assert len(cmd_table1(n=10, deltas=(0.5, 0.2), replicates=2)) == 2
        assert len(figure_different_n(epochs_budget=3)) == 12 * 4
        assert len(figure_lu(n=16, epochs_budget=3)) == 4

    @pytest.mark.parametrize("kwargs, epochs", [
        (dict(n=16, tol=1e-3), 657),  # stops at tol, the child blocked on a full pipe
        (dict(n=16, epochs_budget=30), 30),  # stops at the budget
    ])
    def test_figure_lu_leaves_no_child(self, two_cpus, kwargs, epochs):
        assert len(figure_lu(**kwargs)) == epochs + 1

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_figure_lu_failure_raises_and_leaves_no_child(self, two_cpus, monkeypatch, where):
        import cdlab.cli

        parent, epoch_dense, calls = os.getpid(), cdlab.cli._epoch_dense, []

        def fail_at_epoch_5(G, A, orders):
            calls.append(None)
            if len(calls) == 5 and (os.getpid() == parent) == (where == "parent"):
                raise FloatingPointError(f"epoch 5 in the {where}")
            return epoch_dense(G, A, orders)

        monkeypatch.setattr(cdlab.cli, "_epoch_dense", fail_at_epoch_5)
        with pytest.raises(FloatingPointError, match=f"epoch 5 in the {where}"):
            figure_lu(n=16, epochs_budget=50)

    @pytest.mark.parametrize("command", ["_in_processes", "figure_lu"])
    def test_a_child_that_dies_mid_share_raises(self, two_cpus, monkeypatch, command):
        import cdlab.cli

        parent, epoch_dense, calls = os.getpid(), cdlab.cli._epoch_dense, []

        def die_at_call_2(*args):  # an epoch of figure lu, or a job of _in_processes
            calls.append(None)
            if len(calls) == 2 and os.getpid() != parent:
                os._exit(1)
            return epoch_dense(*args) if args else 0.5

        with pytest.raises(RuntimeError, match="ended before its end frame"):
            if command == "figure_lu":
                monkeypatch.setattr(cdlab.cli, "_epoch_dense", die_at_call_2)
                figure_lu(n=16, epochs_budget=50)
            else:  # the child runs jobs 1 and 3, and dies in job 3
                list(_in_processes([die_at_call_2] * 4, [1] * 4))

    def test_an_exception_that_does_not_pickle_keeps_its_repr(self, two_cpus):
        job = self.in_child(ValueError("bad cell", lambda: None))
        with pytest.raises(RuntimeError, match=r"^ValueError\('bad cell', <function"):
            list(_in_processes([job, job, job], [3, 2, 1]))


@pytest.mark.parametrize("kwargs", [
    dict(epochs_budget=300),  # the defaults, over 300 epochs
    dict(tol=0.1),  # stops at tol after 34 epochs
    dict(sequences=1, epochs_budget=100),  # one product in each process
])
def test_figure_lu_rows_do_not_depend_on_cpus(monkeypatch, kwargs):
    # each product's values depend only on its own orders, at n = 100 too,
    # where the stack of every process re-anchors at different epochs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = figure_lu(n=100, **kwargs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert figure_lu(n=100, **kwargs) == one


class TestPredictorsWithoutDenseC:
    @pytest.fixture
    def no_dense_path(self, monkeypatch):
        # every module that could reach the dense n x n epoch matrix finds a
        # function that raises instead
        import cdlab
        import cdlab.cli
        import cdlab.engine
        import cdlab.rates
        import cdlab.recurrence

        def refuse(*args, **kwargs):
            raise AssertionError("dense predictor path called")

        for module in (cdlab, cdlab.cli, cdlab.engine, cdlab.rates, cdlab.recurrence):
            if hasattr(module, "closed_form_C"):
                monkeypatch.setattr(module, "closed_form_C", refuse)

    def test_commands_never_build_dense_C(self, no_dense_path):
        report = cmd_predict(700, 0.2)
        assert 0.0 < report["rho_C_sq"] < 1.0
        rows = cmd_table1(n=30, deltas=(0.5, 0.2), replicates=3)
        assert [row["delta"] for row in rows] == [0.5, 0.2]
        rows = figure_expected(n=300)
        assert rows[-1]["f_realized"] <= 1e-8

    def test_predict_builds_the_recurrence_once(self, monkeypatch):
        # rho_M and the d1..m2 fields come from one recurrence_coeffs call
        import cdlab.cli
        import cdlab.rates

        calls = []

        def counted(*args):
            calls.append(args)
            return recurrence_coeffs(*args)

        for module in (cdlab.cli, cdlab.rates):
            monkeypatch.setattr(module, "recurrence_coeffs", counted)
        report = cmd_predict(700, 0.2)
        assert calls == [(700, 0.2)]
        monkeypatch.undo()
        assert report["rho_M"] == rho_M(700, 0.2)

    def test_predict_at_a_million_coordinates(self, capsys):
        main(["predict", "--n", "1000000", "--delta", "0.5", "--format", "json"])
        report = json.loads(capsys.readouterr().out)["report"]
        values = [v for key, v in report.items() if key != "sun_ye_terms"] + report["sun_ye_terms"]
        assert all(math.isfinite(v) for v in values)
        # the headline: random permutations contract far faster than cyclic order
        assert 0.0 <= report["rho_M"] < report["rho_C_sq"] < 1.0


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
        rows = cmd_table1(deltas=(0.5, 0.2), replicates=3, max_epochs=30_000, seed=1)
        assert len(parsed) == 2
        for got, want in zip(parsed, rows):
            assert float(got["delta"]) == want["delta"]
            assert float(got["rho_C_sq"]) == want["rho_C_sq"]
            assert float(got["rho_rpcd_emp"]) == want["rho_rpcd_emp"]

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
    @pytest.mark.parametrize("variant, code", [("ccd", 0), ("rcd", 1), ("rpcd", 2)])
    def test_seed_codes_are_pinned(self, variant, code):
        # every seeded output depends on these codes, the positions in ORDERINGS
        rng = np.random.default_rng(derive_seed(5, 0, code, 0))
        traj = run(PermInvariantQuadratic(8, 0.5), OrderingPolicy(variant), rng.standard_normal(8),
                   max_epochs=3, tol=1e-8, seed=rng)
        rows = cmd_solve(n=8, delta=0.5, variant=variant, seed=5, max_epochs=3)
        assert [r["f"] for r in rows] == traj.f_per_epoch.tolist()

    def test_zero_start_single_row(self):
        rows = cmd_solve(10, 0.3, "ccd", x0="zero")
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
        rho2 = eig_radius(closed_form_C(100, 0.05)) ** 2
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
    def test_lu_small(self):
        rows = figure_lu(n=16, seed=3, epochs_budget=400, tol=1e-10, condition=100.0, sequences=4)
        assert rows[0] == {"epoch": 0, "ccd_rel": 1.0, "rpcd_rel": 1.0, "rpcd_rel_std": 0.0}
        ccd = [r["ccd_rel"] for r in rows]
        rpcd = [r["rpcd_rel"] for r in rows]
        assert all(np.isfinite(ccd)) and all(np.isfinite(rpcd))
        assert ccd[-1] < 1e-6 and rpcd[-1] < 1e-6
        # expected-value curves decay monotonically for these spectra
        assert all(b <= a * (1 + 1e-12) for a, b in zip(ccd, ccd[1:]))

    def test_lu_matches_epoch_map_products(self):
        # every column rebuilt through epoch-map products and (1/2) tr(G'AG) / (n/2):
        # ccd_rel from powers of the cyclic map C, and rpcd_rel and rpcd_rel_std
        # from the same permutation streams
        n, seed, sequences = 16, 3, 4
        rows = figure_lu(n=n, seed=seed, epochs_budget=400, tol=1e-300, condition=100.0,
                         sequences=sequences)
        model = build_log_uniform_spectrum(n, 100.0, derive_seed(seed, 0))
        A = model.matrix()
        C = epoch_map(model)
        rngs = [np.random.default_rng(derive_seed(seed, 1000 + k)) for k in range(sequences)]
        G_ccd, Gs = np.eye(n), [np.eye(n)] * sequences
        assert len(rows) == 401
        for r in rows[1:]:
            G_ccd = C @ G_ccd
            ccd = 0.5 * np.trace(G_ccd.T @ A @ G_ccd) / (n / 2)
            assert abs(r["ccd_rel"] - ccd) <= 1e-12 * ccd
            Gs = [epoch_map(model, rng.permutation(n)) @ G for G, rng in zip(Gs, rngs)]
            rel = np.array([0.5 * np.trace(G.T @ A @ G) for G in Gs]) / (n / 2)
            assert abs(r["rpcd_rel"] - rel.mean()) <= 1e-12 * rel.mean()
            # the spread is a difference of near values; hold it to the mean's scale
            assert abs(r["rpcd_rel_std"] - rel.std(ddof=1)) <= 1e-12 * rel.mean()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the oracle needs an extended-precision long double")
    def test_lu_carried_values_match_exact_ones(self):
        # the decrement carried between exact evaluations, over the default
        # budget and tol, against (1/2) tr(G'AG) of the same stack every epoch:
        # a cyclic slice, then the permutation slices.  The oracle sums in long
        # double: in doubles, as `expected_over_x0`, it reads up to 1e-13 off
        # the extended-precision value itself here
        n, seed, sequences = 16, 0, 10
        rows = figure_lu(n=n, seed=seed)
        model = build_log_uniform_spectrum(n, 1e4, derive_seed(seed, 0))
        A = model.A.astype(np.longdouble)
        rngs = [np.random.default_rng(derive_seed(seed, 1000 + k)) for k in range(sequences)]
        G = np.tile(np.eye(n), (sequences + 1, 1, 1))
        assert len(rows) == 5001
        for r in rows[1:]:
            _epoch_dense(G, model.A, np.array([np.arange(n)] + [rng.permutation(n) for rng in rngs]))
            GL = G.astype(np.longdouble)
            rel = ((A @ GL) * GL).sum(axis=(-2, -1)) / n
            assert abs(r["ccd_rel"] - rel[0]) <= 5e-13 * rel[0]
            mean, std = rel[1:].mean(), rel[1:].std(ddof=1)
            assert abs(r["rpcd_rel"] - mean) <= 1e-13 * mean
            assert abs(r["rpcd_rel_std"] - std) <= 1e-12 * std

    def test_lu_spread_needs_two_sequences(self):
        rows = figure_lu(n=16, seed=3, epochs_budget=5, condition=100.0, sequences=1)
        assert all(math.isnan(r["rpcd_rel_std"]) for r in rows)

    def test_different_n_structure(self):
        rows = figure_different_n(seed=0, epochs_budget=50, delta=0.001)
        variants = {(r["variant"], r["n"]) for r in rows}
        assert variants == {(v, n) for v in ("ccd", "rpcd", "rcd") for n in DIFFERENT_N}
        by_key = {}
        for r in rows:
            by_key.setdefault((r["variant"], r["n"]), []).append(r)
        for series in by_key.values():
            assert series[0]["f_over_f0"] == 1.0
            assert len(series) == 51

    def test_expected_realized_and_closed_form_share_slope(self):
        rows = figure_expected(n=100, seed=2, delta=0.05)
        realized = np.array([r["f_realized"] for r in rows])
        closed = np.array([r["f_expected"] for r in rows])
        w = 10
        rate_real = (realized[-1] / realized[-1 - w]) ** (1 / w)
        rate_closed = (closed[-1] / closed[-1 - w]) ** (1 / w)
        assert abs(rate_real - rate_closed) <= 0.02

    def test_expected_column_recomputes_from_recurrence(self):
        rows = figure_expected(n=50, seed=5, delta=0.1)
        M = recurrence_coeffs(50, 0.1)
        for r in rows[:20]:
            eta, nu = evolve(M, 0.1, r["epoch"])[-1]
            assert r["f_expected"] == 0.5 * 50 * (eta + nu)

    def test_figure_csv_round_trip(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure", "expected", "--n", "30", "--delta", "0.2", "--seed", "8",
              "--output", str(out)])
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        rows = figure_expected(n=30, seed=8, delta=0.2)
        assert len(parsed) == len(rows)
        assert float(parsed[3]["f_expected"]) == rows[3]["f_expected"]


_CLI = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cdlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("argv", [
    "table1 --n 30 --replicates 3",
    "table1 --n 20 --delta 1.0 --delta 0.5 --max-epochs 5",
    "figure different_n --epochs-budget 40",
    "figure lu --n 16 --epochs-budget 400 --seed 2",
    "figure lu --n 8 --condition 10 --sequences 3 --epochs-budget 3000",  # stops at tol
])
def test_bytes_do_not_depend_on_threads_or_cpus(argv):
    # default BLAS threads and one forked process per CPU, one BLAS thread,
    # and one CPU (no fork): the same stdout and stderr bytes
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    outputs = []
    for how, extra in (("default", {}), ("default", {"OPENBLAS_NUM_THREADS": "1"}), ("pinned", {})):
        proc = subprocess.run([sys.executable, "-c", _CLI, how, *argv.split()], env={**env, **extra},
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0]


def test_no_command_loads_scipy():
    # numpy is the only runtime dependency: no command imports scipy
    src = Path(__file__).resolve().parent.parent / "src"
    script = """
import sys
from cdlab.cli import main
for argv in (
    "table1 --n 20 --delta 0.5 --replicates 2",
    "figure lu --n 8 --epochs-budget 3 --sequences 2",
    "figure different_n --epochs-budget 3",
    "figure expected --n 20 --delta 0.3",
    "predict --n 20 --delta 0.3",
    "solve --n 20 --delta 0.3 --variant ccd",
    "solve --n 20 --delta 0.3 --variant rpcd --format json",
):
    main(argv.split() + ["--output", "-"])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr)
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"
