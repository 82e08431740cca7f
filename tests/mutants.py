"""Replay the mutation checks: every mutant in MUTANTS must fail its test selection.

    python tests/mutants.py            # the whole table
    python tests/mutants.py NAME ...   # only these mutants

The script copies `src/`, `tests/`, `perfbench/` and `pyproject.toml` to a
temporary directory. It first runs each distinct selection on the
unchanged copy (the null mutant), which must pass: otherwise a broken copy
would make every mutant look caught. Then it applies one mutant at a
time, an exact text replacement in one file, and runs its selection's
fast tests with `-x -q -p no:cacheprovider -m "not slow"`. It prints
each mutant as caught, with the first test that failed, or as survived.

An old text that does not occur exactly once is an error, not a skip, so
a refactor that moves the code must update the table. A surviving mutant
is a gap in the tests, to be closed by a test, never by a looser
selection. Exit status: 0 when every mutant is caught, 1 when one
survives or its pytest run errors, 2 on a stale table entry or a failing
null mutant.

pytest does not collect this file (its name does not start with `test_`),
and it is not part of the Tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")  # test_harness loads perfbench/spans.py
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "-m", "not slow")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in `path`
    new: str
    selection: tuple[str, ...]  # one or two test files


MUTANTS = (
    Mutant("grow without the downsample fallback", "src/growbench/morph.py",
           '        init_rule = "random"\n', "        pass\n",
           ("tests/test_morph.py",)),
    Mutant("grow without the stale-ensemble check", "src/growbench/morph.py",
           "        if (ensemble.stage, ensemble.index) != (stage, net.blocks_per_stage()[stage] - 1):",
           "        if False:",
           ("tests/test_morph.py",)),
    Mutant("a fork shares its ensemble's shadow", "src/growbench/harness.py",
           "shadow=self.ensemble.shadow.copy()", "shadow=self.ensemble.shadow",
           ("tests/test_harness.py",)),
    Mutant("EMA updates read a fixed net", "src/growbench/harness.py",
           "ensemble.update(net)", "ensemble.update(group[0].net)",
           ("tests/test_harness.py",)),
    Mutant("EVAL_CHUNK 4000", "src/growbench/netcore.py",
           "EVAL_CHUNK = 4096\n", "EVAL_CHUNK = 4000\n",
           ("tests/test_netcore.py",)),
    Mutant("MOMENTUM 0.95", "src/growbench/netcore.py",
           "MOMENTUM = 0.9\n", "MOMENTUM = 0.95\n",
           ("tests/test_fingerprints.py",)),
    Mutant("ddof=1 in _mean_std", "src/growbench/data.py",
           "        std /= n\n", "        std /= n - 1\n",
           ("tests/test_data.py",)),
    Mutant("fragrow waits one epoch longer", "src/growbench/timing.py",
           "return epoch - state.last_growth_epoch >= max(1.0, needed)",
           "return epoch - state.last_growth_epoch >= max(1.0, needed) + 1",
           ("tests/test_timing.py",)),
    Mutant("train_macs counts the net of metrics[e]", "src/growbench/harness.py",
           "trained = [seed_blocks] + [m.blocks for m in b.metrics[:-1]]",
           "trained = [m.blocks for m in b.metrics]",
           ("tests/test_harness.py",)),
)


def run_pytest(workdir: str, selection: tuple[str, ...]) -> tuple[int, str]:
    """(exit code, first FAILED/ERROR line or the output's tail) of one pytest run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", *PYTEST, *selection], cwd=workdir,
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, (failed[0] if failed else "\n".join(lines[-5:]))


def check_table(mutants: tuple[Mutant, ...]) -> list[str]:
    """One message per mutant whose old text does not occur exactly once in the checkout."""
    problems = []
    for m in mutants:
        with open(os.path.join(ROOT, m.path)) as f:
            count = f.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return problems


def main(argv: list[str]) -> int:
    mutants = tuple(m for m in MUTANTS if not argv or m.name in argv)
    unknown = set(argv) - {m.name for m in MUTANTS}
    problems = [f"unknown mutant {name!r}" for name in sorted(unknown)] + check_table(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="growbench-mutants-") as workdir:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(workdir, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        selections = list(dict.fromkeys(m.selection for m in mutants))
        for selection in selections:
            code, detail = run_pytest(workdir, selection)
            if code != 0:
                print(f"null mutant fails {' '.join(selection)}:\n{detail}", file=sys.stderr)
                return 2
        print(f"null mutant passes {len(selections)} selection(s)")
        caught = 0
        for m in mutants:
            path = os.path.join(workdir, m.path)
            with open(path) as f:
                original = f.read()
            with open(path, "w") as f:
                f.write(original.replace(m.old, m.new))
            try:
                code, detail = run_pytest(workdir, m.selection)
            finally:
                with open(path, "w") as f:
                    f.write(original)
            if code == 1:
                caught += 1
                print(f"caught    {m.name}  {detail}")
            elif code == 0:
                print(f"SURVIVED  {m.name}  ({' '.join(m.selection)})")
            else:
                print(f"error     {m.name}  pytest exit {code}:\n{detail}")
    print(f"{caught} of {len(mutants)} caught in {time.perf_counter() - start:.1f} s")
    return 0 if caught == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
