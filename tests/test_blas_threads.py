"""One OpenBLAS thread by default; an explicit OPENBLAS_NUM_THREADS wins.

Each check runs in a fresh interpreter, because OpenBLAS reads the
variable once, when numpy loads it, and `import growbench` sets the count
once, at import.
"""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "tests", "perfbench"))
NUMPY_LIBS = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")

pytestmark = pytest.mark.skipif(
    not glob.glob(os.path.join(NUMPY_LIBS, "*openblas*.so*")),
    reason="numpy's BLAS is not a bundled OpenBLAS",
)

# Prints the effective OpenBLAS thread count, as the benchmark reads it.
READ_THREADS = """
import envfacts
{imports}
print(envfacts.blas_facts()["threads"])
"""


def run_python(code: str, threads: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = PATH
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def effective_threads(threads: str | None, import_growbench: bool) -> int:
    imports = "import growbench" if import_growbench else ""
    return int(run_python(READ_THREADS.format(imports=imports), threads))


def test_import_sets_one_thread_when_unset():
    assert effective_threads(None, import_growbench=True) == 1


def test_explicit_thread_count_is_left_alone():
    assert effective_threads("2", import_growbench=True) == effective_threads("2", import_growbench=False)


# A short run whose first layer is a 64x784 @ 784x32 product: wide enough
# that OpenBLAS splits it across threads when it may.
WIDE_RUN = """
from growbench.harness import DataConfig, PolicyConfig, TrainConfig, run
from test_fingerprints import fingerprint
config = TrainConfig(
    seed_arch="res:32x1", target_arch="res:32x2",
    policy=PolicyConfig(name="periodic"),
    data=DataConfig(source="gaussians", classes=4, dim=784, per_class=64,
                    test_per_class=16, data_seed=1),
    total_epochs=3, min_finetune_epochs=1, batch_size=64, run_seed=0,
)
print(fingerprint(run(config)))
"""


def test_default_bytes_are_one_thread_bytes():
    assert run_python(WIDE_RUN, None) == run_python(WIDE_RUN, "1")
