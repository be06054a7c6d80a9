"""The exactness tests under other OpenBLAS kernel families.

numpy's DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU at load
time, and `OPENBLAS_CORETYPE` overrides that choice for one process.
Besides SkylakeX (AVX-512 CPUs), an x86-64 host can select four more
families: Haswell (many AVX2 CPUs without AVX-512; `Zen` maps to it),
Sandybridge (AVX), Nehalem (SSE4.2) and Prescott (OpenBLAS's oldest
x86-64 target).  Each child process reruns the tests whose equalities
must not depend on the kernel: an iterate's f against its row in a
stack, the stacked replicates against `run`, and the `predict` golden
cases, whose recurrence scalars are numpy sums; and the tests whose
bounds were measured under all five families.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
CORETYPES = ["Haswell", "Sandybridge", "Nehalem", "Prescott"]
PREDICT_CASES = ["predict", "predict_n700_json", "predict_n1e6_json", "predict_delta_above_1_json"]
TESTS = [
    "tests/test_properties.py::test_objective_of_an_iterate_equals_objective_of_its_row",
    "tests/test_engine.py::TestChunkedOrders",
    "tests/test_engine.py::TestFixedOrderDrift::test_block_path_drift_is_bounded_per_epoch",
    "tests/test_engine.py::TestCyclicTail::test_spectral_form_against_40_digits",
    "tests/test_engine.py::TestCyclicTail::test_budget_next_to_powers_of_two",
    "tests/test_properties.py::test_rpcd_stack_matches_run_at_every_n",
] + [f"tests/test_golden.py::test_output_matches_golden_file[{name}]" for name in PREDICT_CASES]


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an x86-64 OpenBLAS that picks its kernels at load time."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is no x86-64 DYNAMIC_ARCH OpenBLAS")
def test_exactness_tests_pass_under_other_kernels():
    # every child at once
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    children = {core: subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env={**env, "OPENBLAS_CORETYPE": core}, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True) for core in CORETYPES}
    outs = {core: child.communicate()[0] for core, child in children.items()}
    for core, child in children.items():
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{outs[core]}"
