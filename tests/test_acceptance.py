"""Acceptance suite: formula exactness, gradient exactness, schedule
contracts, and directional mechanism checks on the shipped presets (and,
for criterion 6, one fixture the test builds itself).

Heavy preset runs are shared across criteria through a lazily filled
session cache. Runs that differ only in policy and seed net (the
`_vanilla` labels) are computed together, for every seed, by one `run`
call, which gives each its solo run's result. The full module takes about 2.5 minutes on a 2-core machine.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from growbench.arch import ArchSpec, StageSpec
from growbench.cli import CliConfig, _build_config, parse_config_text, render_config
from growbench.data import Dataset, read_idx, write_idx
from growbench.harness import DataConfig, _shared_part, run, write_metrics
from growbench.morph import GrowthEvent
from growbench.netcore import build_network
from growbench.presets import preset_config
from growbench.timing import PolicyError, average_training_epochs, i_max, interval, orl, round_half_up
from test_netcore import solo_step

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2, 3, 4)

# Every preset label the criteria read.
LABELS = ("overfit", "overfit_periodic", "overfit_convergent", "overfit_periodic_fast",
          "overfit_vanilla", "underfit", "underfit_periodic", "underfit_convergent",
          "underfit_vanilla", "underfit_a2", "underfit_a6")

mp = pytest.importorskip("mpmath")
mp.mp.dps = 50


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_seeds(configs):
    """One `run` call of `configs` over SEEDS: [[result per config] per seed].

    A failed run raises its error, as the run alone would.
    """
    outcomes = run([replace(cfg, run_seed=seed) for seed in SEEDS for cfg in configs])
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return [outcomes[k * len(configs):(k + 1) * len(configs)] for k in range(len(SEEDS))]


class RunCache:
    """Lazily executed preset runs, shared by the mechanism criteria.

    A miss fills every label in LABELS that differs from the missing one
    only in `policy` and `seed_arch`, for all SEEDS, from one `run` call.
    """

    def __init__(self):
        self._runs = {}

    def config(self, label: str):
        if label.startswith(("overfit", "underfit")) and "_a" in label:
            base, alpha = label.split("_a")
            cfg = preset_config(base)
            return replace(cfg, policy=replace(cfg.policy, alpha=float(alpha)))
        return preset_config(label)

    def _base(self, label: str):
        return _shared_part(self.config(label))

    def get(self, label: str, seed: int):
        key = (label, seed)
        if key not in self._runs:
            group = [label] + [other for other in LABELS
                               if other != label and self._base(other) == self._base(label)]
            outcomes = run_seeds([self.config(g) for g in group])
            for s, per_seed in zip(SEEDS, outcomes):
                self._runs.update({(g, s): out for g, out in zip(group, per_seed)})
        return self._runs[key]

    def results(self, label: str):
        return [self.get(label, s) for s in SEEDS]


@pytest.fixture(scope="session")
def cache():
    return RunCache()


def median(values):
    return statistics.median(values)


def growth_end_epoch(result):
    return max(e.epoch for e in result.events)


def end_of_growth_orl(result):
    return result.metrics[growth_end_epoch(result) - 1].orl


# --- criterion 1: formula exactness vs a high-precision oracle ---------------

def test_c1_formula_exactness():
    rng = np.random.default_rng(20240803)
    worst = 0.0

    def rel(err_num, err_ref):
        ref = abs(err_ref)
        return abs(err_num - err_ref) / ref if ref > 0 else abs(err_num - err_ref)

    for _ in range(10_000):
        a, b = rng.uniform(0, 100, size=2)
        worst = max(worst, rel(orl(a, b), float(mp.mpf(a) - mp.mpf(b))))

    accepted_infeasible = 0
    for _ in range(10_000):
        total = int(rng.integers(31, 500))
        fin = int(rng.integers(0, total))
        n = int(rng.integers(1, 64))
        if n > total - fin:  # n growths cannot fit before the finetuning floor
            try:
                i_max(total, fin, n)
                accepted_infeasible += 1
            except PolicyError:
                pass
            continue
        worst = max(worst, rel(i_max(total, fin, n),
                               float((mp.mpf(total) - fin) / n)))

    for _ in range(10_000):
        cap = rng.uniform(0.1, 100.0)
        alpha = rng.uniform(0.0, 10.0)
        level = rng.uniform(-100.0, 100.0)
        ref = mp.mpf(cap) / (1 + mp.e ** (mp.mpf(alpha) - mp.mpf(level)))
        worst = max(worst, rel(interval(cap, alpha, level), float(ref)))

    for _ in range(10_000):
        total = int(rng.integers(1, 500))
        ts = rng.integers(0, total + 1, size=int(rng.integers(1, 50)))
        events = [GrowthEvent(int(t), 0, 1, "copy") for t in ts]
        ref = mp.fsum(mp.mpf(total) - mp.mpf(int(t)) for t in ts) / len(ts)
        worst = max(worst, rel(average_training_epochs(events, total), float(ref)))

    ok = worst < 1e-12 and accepted_infeasible == 0
    # the worked examples, at their printed precision
    ok &= i_max(180, 30, 24) == 6.25
    ok &= round(interval(6.25, 4.0, 4.30), 4) == 3.5903
    ok &= abs(interval(6.25, 4.0, 31.35) - 6.25) < 1e-10
    ok &= average_training_epochs(
        [GrowthEvent(t, 0, 1, "copy") for t in (2, 4, 6)], 10) == 6.0
    report(1, ok, f"max relative error vs 50-digit oracle = {worst:.2e} (limit 1e-12), "
                  f"{accepted_infeasible} infeasible budgets accepted (limit 0)")


# --- criterion 2: gradient exactness ------------------------------------------

def _numeric_flat(net, feats, labels, eps=1e-5):
    out = []
    for w, b in net.views(net.params):
        for arr in (w, b):
            g = np.zeros(arr.size)
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = solo_step(net, feats, labels)[0]
                flat[i] = orig - eps
                lm = solo_step(net, feats, labels)[0]
                flat[i] = orig
                g[i] = (lp - lm) / (2 * eps)
            out.append(g)
    return np.concatenate(out)


def test_c2_gradient_exactness():
    worst = 0.0
    for family in ("res", "plain"):
        arch = ArchSpec(family, tuple(StageSpec(16, 2) for _ in range(4)),
                        input_dim=12, num_classes=4)
        for seed in range(3):
            net = build_network(arch, seed)
            rng = np.random.default_rng(100 + seed)
            feats = rng.normal(size=(8, 12))
            labels = rng.integers(0, 4, size=8)
            a = solo_step(net, feats, labels)[2]
            n = _numeric_flat(net, feats, labels)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    report(2, worst < 1e-5,
           f"max relative error vs central differences = {worst:.2e} (limit 1e-5)")


# --- criterion 3: schedule contracts ------------------------------------------

def test_c3_schedule_contracts(cache):
    failures = []
    for base in ("overfit", "underfit"):
        cfg = preset_config(base)
        budget = 3
        cap = i_max(cfg.total_epochs, cfg.min_finetune_epochs, budget)
        period = periodic_period_from_cap(cap)
        for policy in ("", "_periodic", "_convergent"):
            label = base + policy
            for seed in SEEDS:
                r = cache.get(label, seed)
                if len(r.events) != budget:
                    failures.append(f"{label}/{seed}: {len(r.events)} events")
                if r.metrics[-1].blocks != (2, 2, 2):
                    failures.append(f"{label}/{seed}: final arch {r.metrics[-1].blocks}")
                at_target = cfg.total_epochs - growth_end_epoch(r)
                if at_target < cfg.min_finetune_epochs:
                    failures.append(f"{label}/{seed}: only {at_target} finetune epochs")
        # risk-aware gaps never exceed the periodic period
        for seed in SEEDS:
            r = cache.get(base, seed)
            ts = [e.epoch for e in r.events]
            gaps = [ts[0] - 1] + [b - a for a, b in zip(ts, ts[1:])]
            if any(g > period for g in gaps):
                failures.append(f"{base}/{seed}: gaps {gaps} exceed period {period}")
    report(3, not failures,
           failures[0] if failures else
           f"3 policies x 2 presets x {len(SEEDS)} seeds: budget, target arch, "
           f"finetune floor, gap bound all hold")


def periodic_period_from_cap(cap):
    return max(1, round_half_up(cap))


# --- criterion 4: regularization-effect ordering --------------------------------

def test_c4_regularization_ordering(cache):
    slow = median([r.final_train_error for r in cache.results("overfit_periodic")])
    fast = median([r.final_train_error for r in cache.results("overfit_periodic_fast")])
    vanilla = median([r.final_train_error for r in cache.results("overfit_vanilla")])
    costs = [median([r.train_macs for r in cache.results(label)])
             for label in ("overfit_vanilla", "overfit_periodic_fast", "overfit_periodic")]
    ok = slow >= fast >= vanilla and (slow - vanilla) >= 1.0 and costs[0] > costs[1] > costs[2]
    report(4, ok,
           f"median final train error: slow {slow:.2f} >= fast {fast:.2f} >= "
           f"vanilla {vanilla:.2f}, slow-vanilla gap {slow - vanilla:.2f} (need >= 1.00); "
           f"median train MACs: vanilla {costs[0]:,} > fast {costs[1]:,} > slow {costs[2]:,}")


def test_c4_underfit_growth_costs_less_than_vanilla(cache):
    # the cost arm of criterion 4 on the other preset: every growing policy
    # trains for fewer forward MACs than the target net from scratch
    vanilla, *growing = (median([r.train_macs for r in cache.results(label)])
                         for label in ("underfit_vanilla", "underfit", "underfit_periodic",
                                       "underfit_convergent"))
    report(4, all(cost < vanilla for cost in growing),
           f"underfit median train MACs: vanilla {vanilla:,} > fragrow {growing[0]:,}, "
           f"periodic {growing[1]:,}, convergent {growing[2]:,}")


# --- criterion 5: fitting-risk regime separation ---------------------------------

def test_c5_regime_separation(cache):
    over = median([end_of_growth_orl(r) for r in cache.results("overfit")])
    under = median([end_of_growth_orl(r) for r in cache.results("underfit")])
    e_over = median([r.e_bar for r in cache.results("overfit")])
    e_under = median([r.e_bar for r in cache.results("underfit")])
    ok = (over - under) >= 10.0 and e_under > e_over
    report(5, ok,
           f"end-of-growth risk level {over:.2f} (overfit) vs {under:.2f} (underfit), "
           f"gap {over - under:.2f} (need >= 10); avg block epochs "
           f"{e_under:.2f} (underfit) > {e_over:.2f} (overfit)")


# --- criterion 6: policy comparison direction -------------------------------------

POLICIES = ("fragrow", "periodic", "convergent")


def max_orl_before_last_growth(result):
    return max(m.orl for m in result.metrics[:growth_end_epoch(result)])


def checkerboard_config(tmp_path):
    """Underfitting fixture on which growth timing costs fit.

    Noise-free labels: the colour of a 6x6 checkerboard over [-1, 1]^2,
    8000 training and 2000 test points, run with the underfit preset's
    nets and schedule. A plain block inserted by copying its predecessor
    perturbs the learned function, and on this boundary re-fitting takes
    many epochs, so late insertions cost training error. On the Gaussian
    `underfit` preset the Bayes boundary is linear and the net re-fits
    within an epoch or two. A 10 % validation split (800 points) keeps
    the risk reading's sampling noise below 2 pp.
    """
    points = np.random.default_rng(1).uniform(-1.0, 1.0, size=(10_000, 2))
    cells = np.floor((points + 1.0) / 2.0 * 6.0).sum(axis=1)
    labels = cells.astype(np.int64) % 2
    paths = []
    for name, rows in (("train.csv", slice(0, 8000)), ("test.csv", slice(8000, None))):
        path = tmp_path / name
        with open(path, "w") as f:
            f.write("x0,x1,label\n")
            for (a, b), label in zip(points[rows].tolist(), labels[rows].tolist()):
                f.write(f"{a!r},{b!r},{label}\n")
        paths.append(str(path))
    return replace(preset_config("underfit"), data=DataConfig(
        source="csv", train_csv=paths[0], test_csv=paths[1], val_fraction=0.1, data_seed=3))


def underfit_arm(name, runs, alpha):
    """Premise checks and, where both hold, the paper's underfit claim.

    `runs` maps each policy to its results over SEEDS. P1 (low risk):
    fragrow's largest risk reading before its last growth stays below
    alpha. P2 (growth timing costs fit): periodic's final train error is
    at least 1 pp above fragrow's, the margin criterion 4 uses. The claim
    (risk-aware test error <= both baselines, no tolerance) is asserted
    only when P1 and P2 hold. Returns (premise met, claim ok, detail).
    """
    p1 = median([max_orl_before_last_growth(r) for r in runs["fragrow"]])
    train = {p: median([r.final_train_error for r in rs]) for p, rs in runs.items()}
    test = {p: median([r.final_test_error for r in rs]) for p, rs in runs.items()}
    p1_ok = p1 < alpha
    p2_ok = train["periodic"] >= train["fragrow"] + 1.0
    premise = p1_ok and p2_ok
    claim_ok = test["fragrow"] <= test["periodic"] and test["fragrow"] <= test["convergent"]
    verdict = f"claim asserted: {'holds' if claim_ok else 'FAILS'}" if premise else "claim not asserted"
    detail = (
        f"{name}: P1 risk before last growth {p1:.2f} (need < {alpha:.2f}) "
        f"{'met' if p1_ok else 'not met'}; P2 train error periodic {train['periodic']:.2f} "
        f"vs risk-aware {train['fragrow']:.2f} (need >= +1.00) {'met' if p2_ok else 'not met'}; "
        f"{verdict}, test error risk-aware {test['fragrow']:.2f} vs periodic "
        f"{test['periodic']:.2f}, convergent {test['convergent']:.2f} (need <= both)"
    )
    return premise, claim_ok, detail


def test_c6_policy_comparison(cache, tmp_path):
    checker = checkerboard_config(tmp_path)
    fixtures = [
        ("underfit", preset_config("underfit").policy.alpha, {
            "fragrow": cache.results("underfit"),
            "periodic": cache.results("underfit_periodic"),
            "convergent": cache.results("underfit_convergent"),
        }),
        ("checkerboard", checker.policy.alpha, dict(zip(POLICIES, zip(*run_seeds(
            [replace(checker, policy=replace(checker.policy, name=policy))
             for policy in POLICIES]))))),
    ]
    arms = [underfit_arm(name, runs, alpha) for name, alpha, runs in fixtures]
    asserted = [claim_ok for premise, claim_ok, _ in arms if premise]
    under_ok = bool(asserted) and all(asserted)

    o_frag = median([r.final_test_error for r in cache.results("overfit")])
    o_per = median([r.final_test_error for r in cache.results("overfit_periodic")])
    o_conv = median([r.final_test_error for r in cache.results("overfit_convergent")])
    best_over = min(o_frag, o_per, o_conv)
    over_ok = (o_frag - best_over) <= 0.5
    details = [detail for _, _, detail in arms]
    if not asserted:
        details.append("no underfitting fixture meets P1 and P2")
    report(6, under_ok and over_ok,
           "; ".join(details) + f"; overfit: risk-aware {o_frag:.2f} "
           f"within {o_frag - best_over:.2f} of best (need <= 0.50)")


# --- criterion 7: determinism and I/O ----------------------------------------------

def _strip_wall(lines):
    footer = json.loads(lines[-1])
    footer.pop("wall_seconds")
    return lines[:-1], footer


def test_c7_determinism_and_io(cache, tmp_path):
    # byte-identical metrics for a repeated (config, seed)
    first = cache.get("overfit", 0)
    again = run(replace(preset_config("overfit"), run_seed=0))
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_metrics(first, p1)
    write_metrics(again, p2)
    body1, foot1 = _strip_wall(Path(p1).read_text().splitlines())
    body2, foot2 = _strip_wall(Path(p2).read_text().splitlines())
    determinism_ok = body1 == body2 and foot1 == foot2

    # IDX round trip, bit exact
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(20, 12), dtype=np.uint8)
    labels = rng.integers(0, 4, size=20).astype(np.int64)
    labels[0] = 3
    ds = Dataset(pixels.astype(np.float64) / 255.0, labels, 4)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(ds, ip, lp, rows=3, cols=4)
    back = Dataset(*read_idx(ip, lp), 4)
    ip2, lp2 = str(tmp_path / "i2.idx"), str(tmp_path / "l2.idx")
    write_idx(back, ip2, lp2, rows=3, cols=4)
    idx_ok = (back.features.tobytes() == ds.features.tobytes()
              and Path(ip).read_bytes() == Path(ip2).read_bytes()
              and Path(lp).read_bytes() == Path(lp2).read_bytes())

    # config echo round trip
    echo_ok = True
    for name in ("overfit", "underfit", "overfit_vanilla", "underfit_periodic"):
        cfg = CliConfig(train=preset_config(name))
        echo_ok &= _build_config(parse_config_text(render_config(cfg), "echo")) == cfg

    report(7, determinism_ok and idx_ok and echo_ok,
           f"metrics bytes identical: {determinism_ok}; idx round trip exact: {idx_ok}; "
           f"config echo lossless: {echo_ok}")


# --- criterion 8: alpha-sweep sanity ------------------------------------------------

def test_c8_alpha_sweep(cache):
    # exact arm: at fixed risk level the interval shrinks strictly as alpha
    # grows (larger alpha -> faster growth)
    exact_ok = True
    for level in np.linspace(-20.0, 40.0, 61):
        i2, i4, i6 = (interval(12.0, a, float(level)) for a in (2.0, 4.0, 6.0))
        exact_ok &= i2 > i4 > i6

    # measured arm: faster growth means earlier insertions, so the average
    # block training epochs grow weakly with alpha (larger-alpha runs are
    # never more regularized); note the criterion's prose states the
    # opposite sign for e_bar, which contradicts both its own exact clause
    # and the interval formula - see the project notes.
    e_bars = [
        median([r.e_bar for r in cache.results(label)])
        for label in ("underfit_a2", "underfit", "underfit_a6")
    ]
    measured_ok = e_bars[0] <= e_bars[1] <= e_bars[2]
    report(8, exact_ok and measured_ok,
           f"interval strictly decreasing in alpha on [-20,40]: {exact_ok}; "
           f"avg block epochs across alpha 2/4/6: "
           f"{e_bars[0]:.2f} <= {e_bars[1]:.2f} <= {e_bars[2]:.2f}")
