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
           "if (ensemble.stage, ensemble.index) != (stage, net.arch.blocks_per_stage[stage] - 1):",
           "if False:",
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
    Mutant("EVAL_CHUNK 2048", "src/growbench/netcore.py",
           "EVAL_CHUNK = 4096\n", "EVAL_CHUNK = 2048\n",
           ("tests/test_netcore.py",)),
    Mutant("EVAL_CHUNK 4095", "src/growbench/netcore.py",
           "EVAL_CHUNK = 4096\n", "EVAL_CHUNK = 4095\n",
           ("tests/test_netcore.py",)),
    Mutant("EVAL_CHUNK 8192", "src/growbench/netcore.py",
           "EVAL_CHUNK = 4096\n", "EVAL_CHUNK = 8192\n",
           ("tests/test_netcore.py",)),
    Mutant("WEIGHT_DECAY 2e-4", "src/growbench/netcore.py",
           "WEIGHT_DECAY = 1e-4\n", "WEIGHT_DECAY = 2e-4\n",
           ("tests/test_fingerprints.py",)),
    Mutant("flipped evaluation loss sign", "src/growbench/netcore.py",
           "(np.log(logits.sum(axis=1)) - picked)", "(picked - np.log(logits.sum(axis=1)))",
           ("tests/test_netcore.py",)),
    Mutant("evaluation loss shifted by the row mean", "src/growbench/netcore.py",
           "logits -= logits[rows, top][:, None]", "logits -= logits.mean(axis=1)[:, None]",
           ("tests/test_netcore.py",)),
    Mutant("argmax ties go to the last class", "src/growbench/netcore.py",
           "(np.argmax(logits, axis=1) == y)",
           "(logits.shape[1] - 1 - np.argmax(logits[:, ::-1], axis=1) == y)",
           ("tests/test_netcore.py",)),
    Mutant("ddof=1 in split_standardized", "src/growbench/data.py",
           "    std /= len(train)\n", "    std /= len(train) - 1\n",
           ("tests/test_data.py",)),
    Mutant("split_standardized skips the in-place centering", "src/growbench/data.py",
           "    train -= mean\n", "",
           ("tests/test_data.py",)),
    Mutant("svgplot imports xml.sax.saxutils again", "src/growbench/svgplot.py",
           "import math\n", "import math\nfrom xml.sax.saxutils import escape  # noqa: F401\n",
           ("tests/test_imports.py",)),
    Mutant("_nice_ticks keeps ticks that round alike", "src/growbench/svgplot.py",
           "if lo <= t <= hi and (not ticks or t > ticks[-1]):", "if lo <= t <= hi:",
           ("tests/test_svgplot.py",)),
    Mutant("plot accepts a range of infinite width", "src/growbench/cli.py",
           "    if not math.isfinite(hi - lo):\n", "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("fragrow waits one epoch longer", "src/growbench/timing.py",
           "return epoch - state.last_growth_epoch >= max(1.0, needed)",
           "return epoch - state.last_growth_epoch >= max(1.0, needed) + 1",
           ("tests/test_timing.py",)),
    Mutant("train_macs keeps only the last epoch's count", "src/growbench/harness.py",
           "        b.macs += macs\n", "        b.macs = macs\n",
           ("tests/test_harness.py",)),
    Mutant("a fork forgets its macs", "src/growbench/harness.py",
           "members=members)", "members=members, macs=0)",
           ("tests/test_harness.py",)),
    Mutant("aim ignores the last growth's stage", "src/growbench/harness.py",
           "self.net.arch.blocks_per_stage, last)", "self.net.arch.blocks_per_stage)",
           ("tests/test_harness.py",)),
    Mutant("plot draws the interval at a fixed alpha 4", "src/growbench/cli.py",
           "interval(s.max_interval, s.alpha, m.orl)", "interval(s.max_interval, 4.0, m.orl)",
           ("tests/test_cli.py",)),
    Mutant("read_metrics ignores the header's config", "src/growbench/harness.py",
           'config = _build_config(parse_config_text(header["config"], "config")).train',
           "config = TrainConfig()",
           ("tests/test_harness.py",)),
    Mutant("_assign accepts a value that spans lines", "src/growbench/config.py",
           "    if len(raw.splitlines()) > 1:", "    if False:",
           ("tests/test_cli.py",)),
    Mutant("a lone network's stack copies its vectors", "src/growbench/netcore.py",
           "params, momentum = nets[0].params[None], nets[0].momentum[None]",
           "params, momentum = nets[0].params[None].copy(), nets[0].momentum[None].copy()",
           ("tests/test_netcore.py",)),
    Mutant("a config str field may span lines or be padded", "src/growbench/config.py",
           "(value != value.strip() or len(value.splitlines()) > 1)", "False",
           ("tests/test_cli.py",)),
    Mutant("read_metrics skips the epoch-sequence check", "src/growbench/harness.py",
           "        if got != want:", "        if False:",
           ("tests/test_harness.py",)),
    Mutant("read_metrics skips check_result", "src/growbench/harness.py",
           "    if (problem := check_result(result)) is not None:", "    if False:",
           ("tests/test_harness.py",)),
    Mutant("the run's end skips check_result", "src/growbench/harness.py",
           "outcomes[i] = result if problem is None else RuntimeError(problem[1])",
           "outcomes[i] = result",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the e_bar check", "src/growbench/harness.py",
           "        if getattr(result, name) != want:",
           '        if name != "e_bar" and getattr(result, name) != want:',
           ("tests/test_harness.py",)),
    Mutant("check_result skips the blocks and grew check", "src/growbench/harness.py",
           "        if (list(m.blocks), m.grew) != (grown[n], grew):", "        if False:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the deadline check", "src/growbench/harness.py",
           "        if not after < e.epoch <= deadline:", "        if not after < e.epoch:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the event-stage check", "src/growbench/harness.py",
           "        if stage is None or (e.stage, e.block_index) != (stage, blocks[stage]):",
           "        if stage is None or e.block_index != blocks[stage]:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the init check", "src/growbench/harness.py",
           '        if e.init_rule not in (config.init, "random"):', "        if False:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the growth-budget check", "src/growbench/harness.py",
           "    if (left := config_added_blocks(config) - len(events)) > 0:", "    if False:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the accuracy range check", "src/growbench/harness.py",
           "        if not all(0 <= acc <= 100 for acc in (m.train_acc, m.val_acc, m.test_acc)):",
           "        if False:",
           ("tests/test_harness.py",)),
    Mutant("check_result skips the orl check", "src/growbench/harness.py",
           "        if m.orl != orl(m.train_acc, m.val_acc):", "        if False:",
           ("tests/test_harness.py",)),
    Mutant("read_idx skips the announced-length check", "src/growbench/data.py",
           "    if size != len(blob) - head:", "    if False:",
           ("tests/test_data.py",)),
    Mutant("read_idx ignores bytes past the announced data", "src/growbench/data.py",
           "    if size != len(blob) - head:", "    if size > len(blob) - head:",
           ("tests/test_data.py",)),
    Mutant("the comparison CSV leaves its labels unquoted", "src/growbench/harness.py",
           'csv.writer(out, lineterminator="\\n")',
           'csv.writer(out, lineterminator="\\n", quoting=csv.QUOTE_NONE, escapechar="\\\\")',
           ("tests/test_harness.py",)),
    Mutant("load_config opens any existing path", "src/growbench/cli.py",
           "    if os.path.isfile(source):", "    if os.path.exists(source):",
           ("tests/test_cli.py",)),
    Mutant("_check_fits without the class-count refusal", "src/growbench/netcore.py",
           "    if ds.num_classes > net.arch.num_classes:\n", "    if False:\n",
           ("tests/test_netcore.py",)),
    Mutant("Dataset back on len(labels) != len(features)", "src/growbench/data.py",
           "if self.labels.shape != (len(self),):",
           "if len(self.labels) != len(self.features):",
           ("tests/test_data.py",)),
    Mutant("OutputConfig accepting an empty path", "src/growbench/config.py",
           "        if not self.metrics_path:\n", "        if False:\n",
           ("tests/test_cli.py",)),
    Mutant("plot accepting an empty --out", "src/growbench/cli.py",
           "    if not args.out:\n", "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("einsum sums a single column too", "src/growbench/data.py",
           " if train.shape[1] > 1 else np.square(train).sum(axis=0)", "",
           ("tests/test_data.py",)),
    Mutant("Dataset without the integer-dtype check", "src/growbench/data.py",
           "        if not np.issubdtype(self.labels.dtype, np.integer):\n", "        if False:\n",
           ("tests/test_data.py",)),
    Mutant("_check_fits without the width check", "src/growbench/netcore.py",
           "    if ds.dim != net.arch.input_dim:\n", "    if False:\n",
           ("tests/test_netcore.py",)),
    Mutant("loss_grads_logits without its _check_fits call", "src/growbench/netcore.py",
           "    _check_fits(st.nets[0], ds)\n", "",
           ("tests/test_netcore.py",)),
    Mutant("loss_grads_logits skips the rows-shape check", "src/growbench/netcore.py",
           "    if rows.ndim != 2 or len(rows) != len(st.nets):\n", "    if False:\n",
           ("tests/test_netcore.py",)),
    Mutant("Dataset without the float64 check", "src/growbench/data.py",
           "        if self.features.dtype != np.float64:\n", "        if False:\n",
           ("tests/test_data.py",)),
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
