"""Importing mcjoint pins BLAS to one thread unless the caller chose a count.

Each check runs in a fresh interpreter, because BLAS reads the variables
once, when numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mcjoint

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(mcjoint.__file__).resolve().parent.parent)

SHOW_ENV = f"import json, os, mcjoint; print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))"

# one mc-ties replicate: n=40 at 2 significant digits, B=999, every
# method and covariance; SDe's projections are the one large GEMM
REPLICATE = """
import mcjoint as mj
from mcjoint.simulation import SimulationPlan, evaluate_replicate
gen = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2)
plan = SimulationPlan(generator=gen, methods=("dem", "wdem", "mdem", "paba"),
                      cov_methods=("classic", "mcd", "sde"), replicates=50, B=999, master_seed=1)
print(repr([evaluate_replicate(plan, 0, ri) for ri in (0, 1)]))
"""


def run(code, **thread_env):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return proc.stdout


def test_import_pins_unset_thread_variables_to_one():
    assert json.loads(run(SHOW_ENV)) == dict.fromkeys(THREAD_VARS, "1")


def test_import_keeps_a_thread_count_the_caller_set():
    shown = json.loads(run(SHOW_ENV, OPENBLAS_NUM_THREADS="2"))
    assert shown == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_replicate_records_do_not_depend_on_blas_threads():
    one = run(REPLICATE, OPENBLAS_NUM_THREADS="1")
    two = run(REPLICATE, OPENBLAS_NUM_THREADS="2")
    assert "'sde':" in one
    assert one == two


# run_plan's pool in a script that loaded numpy (and its BLAS threads)
# before mcjoint: spawned workers load their own numpy under the pin
NUMPY_FIRST_PLAN = """
import numpy
import mcjoint as mj
from mcjoint.simulation import SimulationPlan, run_plan
gen = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=25)
plan = SimulationPlan(generator=gen, methods=("dem", "mdem"), cov_methods=("classic", "sde"),
                      replicates=50, B=199, master_seed=4)
print(repr(dict(run_plan(plan, workers=2))))
print(repr(dict(run_plan(plan, workers=1))))
"""


def test_pool_records_equal_serial_when_numpy_comes_first():
    pooled, serial = run(NUMPY_FIRST_PLAN, OPENBLAS_NUM_THREADS="2").splitlines()
    assert "'ok': True" in serial
    assert pooled == serial
