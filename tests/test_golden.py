"""Golden outputs: stdout, stderr and exit status of fixed CLI invocations.

Each case runs in process through `cdlab.cli.main` and is compared with
its file under tests/golden/.  Headers, keys, strings, integers, stderr
and the exit status must match exactly; floats must match within 1e-12
relative (NaN equals NaN), so the files survive a different BLAS.  A
change that moves an output rewrites its file in the same diff, and
`--report` names what moved before it does.

# report:     PYTHONPATH=src python tests/test_golden.py --report  (exit 1 if any case moved)
# regenerate: PYTHONPATH=src python tests/test_golden.py --regenerate NAME [NAME ...]

`--regenerate` rewrites only the named cases, so a change rewrites just
the files whose output it moved.  A bare invocation is a usage error.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from cdlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

CASES = {
    "table1": "table1",
    "table1_seed3_json": "table1 --seed 3 --format json",
    "table1_n20_max_epochs5": "table1 --n 20 --delta 1.0 --delta 0.5 --max-epochs 5",
    "table1_n256": "table1 --n 256 --delta 0.5 --replicates 2",
    "table1_n300": "table1 --n 300 --delta 0.8 --replicates 2",
    "table1_n192_bound": "table1 --n 192 --delta 0.03 --delta 1.005 --replicates 3",
    "table1_n30_replicates1": "table1 --n 30 --delta 0.5 --replicates 1",
    "figure_lu": "figure lu --epochs-budget 50",
    "figure_lu_n16_json": "figure lu --n 16 --epochs-budget 400 --seed 2 --format json",
    "figure_different_n": "figure different_n --epochs-budget 200",
    "figure_expected": "figure expected",
    "figure_expected_n300_json": "figure expected --n 300 --format json",
    "predict": "predict --n 100 --delta 0.1",
    "predict_n700_json": "predict --n 700 --delta 0.5 --format json",
    "predict_n1e6_json": "predict --n 1000000 --delta 0.3 --format json",
    "predict_delta_above_1_json": "predict --n 100 --delta 1.005 --format json",
    "solve_rpcd": "solve --n 100 --delta 0.05 --variant rpcd --seed 1",
    "solve_ccd_n300": "solve --n 300 --delta 0.3 --variant ccd --seed 1 --max-epochs 2000",
    "solve_rcd_zero_json": "solve --n 50 --delta 0.2 --variant rcd --seed 4 --x0 zero --format json",
    "solve_ccd_budget": "solve --n 100 --delta 0.05 --variant ccd --seed 3 --max-epochs 5000",
    "error_table1_tol": "table1 --tol -1e-3",
    "error_figure_lu_delta": "figure lu --delta 0.1",
    "error_predict_n1": "predict --n 1 --delta 0.5",
    "error_figure_lu_condition_inf": "figure lu --condition inf",
    "error_solve_seed_negative": "solve --n 10 --delta 0.5 --seed -1",
    "error_output_missing_dir": "figure lu --output no_such_dir/lu.csv",
}


def invoke(argv: list[str]) -> dict:
    """Exit status, stdout and stderr of `cdlab <argv>`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage lines at the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return {"exit": status, "stderr": err.getvalue(), "stdout": out.getvalue()}


def _cell(text: str):
    """A CSV cell as int, float or str."""
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _parse(stdout: str, argv: list[str]):
    if not stdout:
        return stdout
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(stdout)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]


def assert_same(got, want, where="stdout"):
    """Equal structure, keys, strings and ints; floats within RTOL, NaN equal to NaN."""
    assert type(got) is type(want), f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if math.isnan(want):
            assert math.isnan(got), f"{where}: {got!r} != nan"
        else:
            assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden_file(name):
    argv = CASES[name].split()
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = invoke(argv)
    assert want["argv"] == argv
    assert got["exit"] == want["exit"]
    assert got["stderr"] == "".join(want["stderr"])
    assert_same(_parse(got["stdout"], argv), _parse("".join(want["stdout"]), argv))


def test_float_comparison_is_relative_and_nan_aware():
    assert_same([1.0, math.nan, 0.0], [1.0 + 1e-13, math.nan, 0.0])
    for got, want in [([1.0], [1.0 + 1e-11]), ([math.nan], [1.0]), ([1], [1.0]),
                      ({"a": 1}, {"b": 1}), ([0.0], [1e-300])]:
        with pytest.raises(AssertionError):
            assert_same(got, want)


def test_report_names_the_largest_move_of_each_float_field():
    want = {"rows": [{"f": 1.0, "n": 3, "v": "a"}, {"f": 2.0, "n": 4, "v": "a"}], "x": math.nan}
    got = {"rows": [{"f": 1.0 + 2e-16, "n": 3, "v": "a"}, {"f": 2.0 + 2e-15, "n": 4, "v": "a"}],
           "x": 1.0}
    moves = {}
    assert _moves(got, want, "", moves)
    assert moves == {"rows.f": pytest.approx(1e-15), "x": math.inf}
    for other in ({"rows": want["rows"][:1], "x": math.nan},
                  {"rows": [{"f": 1.0, "n": 3, "v": "b"}, want["rows"][1]], "x": math.nan}):
        assert not _moves(other, want, "", {})


def test_report_names_a_case_without_golden_file_and_goes_on(monkeypatch, tmp_path, capsys):
    names = ["predict", "error_predict_n1", "predict_n700_json"]
    for name in names[::2]:
        (tmp_path / f"{name}.json").write_text((GOLDEN / f"{name}.json").read_text())
    monkeypatch.setattr(sys.modules[__name__], "CASES", {name: CASES[name] for name in names})
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert report() is False
    assert capsys.readouterr().out.splitlines() == [
        "predict: byte-identical", "error_predict_n1: no golden file", "predict_n700_json: byte-identical"]


def test_bare_invocation_is_usage_error():
    # the script rewrites files only for the cases it is given by name
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parent.parent / "src")}
    for args in ([], ["--regenerate"], ["--regenerate", "no_such_case"]):
        done = subprocess.run([sys.executable, __file__, *args], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 2 and "usage:" in done.stderr


def regenerate(names) -> None:
    """Rewrite the golden files of the named cases from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        argv = CASES[name].split()
        result = invoke(argv)
        record = {"argv": argv, "exit": result["exit"],
                  "stderr": result["stderr"].splitlines(keepends=True),
                  "stdout": result["stdout"].splitlines(keepends=True)}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {result['exit']}", file=sys.stderr)


def _moves(got, want, field: str, moves: dict) -> bool:
    """Largest relative move of each float field into `moves`; False if anything else differs.

    A field is a CSV column or a JSON key path; the rows of a list share
    their fields.  A float that turns NaN or leaves it moves by inf.
    """
    if isinstance(want, float) and isinstance(got, float):
        if not (got == want or math.isnan(got) and math.isnan(want)):
            move = abs(got - want) / abs(want) if want and not math.isnan(got - want) else math.inf
            moves[field] = max(moves.get(field, 0.0), move)
        return True
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        return all([_moves(got[k], want[k], f"{field}.{k}".lstrip("."), moves) for k in want])
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return all([_moves(g, w, field, moves) for g, w in zip(got, want)])
    return got == want


def _records(parsed):
    """CSV rows as dicts keyed by the header, so each column is a field; JSON as it is."""
    if isinstance(parsed, list) and parsed and isinstance(parsed[0], list):
        return [dict(zip(parsed[0], row)) for row in parsed[1:]]
    return parsed


def report() -> bool:
    """Regenerate every case in memory and print how it differs from its file; write nothing.

    Per case: "byte-identical", or the largest relative move of each float
    field that moved, and a note where an exit status, stderr or a
    non-float value differs; "no golden file" for a case without one.
    Returns whether every case is byte-identical.
    """
    identical = True
    for name, command in CASES.items():
        path = GOLDEN / f"{name}.json"
        if not path.exists():
            print(f"{name}: no golden file")
            identical = False
            continue
        argv = command.split()
        got = invoke(argv)
        want = json.loads(path.read_text())
        want_out = "".join(want["stdout"])
        notes = []
        if got["exit"] != want["exit"] or got["stderr"] != "".join(want["stderr"]):
            notes.append("exit status or stderr differs")
        if got["stdout"] != want_out:
            moves = {}
            if not _moves(_records(_parse(got["stdout"], argv)), _records(_parse(want_out, argv)),
                          "", moves):
                notes.append("a non-float value or the layout differs")
            notes += [f"{field} {move:.2g}" for field, move in moves.items()]
            notes = notes or ["floats equal, text differs"]
        print(f"{name}: {'; '.join(notes) or 'byte-identical'}")
        identical = identical and not notes
    return identical


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Report or rewrite the golden CLI outputs.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--report", action="store_true",
                        help="print how each case differs from its file; write nothing")
    action.add_argument("--regenerate", nargs="+", metavar="NAME", choices=list(CASES),
                        help="rewrite the files of these cases")
    args = parser.parse_args()
    if args.report:
        sys.exit(0 if report() else 1)
    else:
        regenerate(args.regenerate)
