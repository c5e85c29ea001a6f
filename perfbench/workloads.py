"""The calib benchmark workloads: recipes, set-up, one timed pass, checks.

Every call into the package goes through a module attribute (``search.
solve_exact``, ``cli.main``, ...), so the traced run can wrap it where the
caller looks it up.  Each workload's instances are pinned, so expected
losses can be checked and the deterministic counts repeat exactly; the
benchmark seed only sets the order in which a pass visits its instances
(or, with a single instance, the order of the compared methods).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from calib import cli, cover, evaluation, oracle, problem, search, synthgen
from calib.synthgen import GenerateSpec

COMPARE_METHODS = (
    "joint-thresholds", "joint-sigmoid", "independent-sigmoid", "isotonic", "affine",
)


@dataclass
class PassResult:
    """One timed pass: step timings, checked-operation counts and outputs.

    ``parts`` optionally splits a step's time into its operations, in the
    same order on every pass.
    """

    timings: dict[str, float]
    parts: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    incumbent_loss: int = 0
    heldout_fp: int = 0
    stats: list = field(default_factory=list)  # SearchStats of every solve
    oracle_cells: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def _call(fn, *args, **kwargs):
    """Run one operation; an exception is returned as a failed result."""
    try:
        return fn(*args, **kwargs), None
    except Exception as e:  # noqa: BLE001 - every failure is counted, none stops the run
        return None, f"{type(e).__name__}: {e}"


class ExactWorkload:
    """Solve each pinned instance to proven optimality with ``solve_exact``."""

    steps = ("solve_s",)

    def __init__(self, spec: GenerateSpec, expected: dict[int, int], seed: int):
        self.spec = spec
        self.expected = dict(expected)
        self.order = sorted(expected)
        random.Random(seed).shuffle(self.order)
        self.seeds = ",".join(str(s) for s in sorted(expected))

    def setup(self, out_dir: Path) -> None:
        self.instances = [
            (s, *synthgen.generate(replace(self.spec, seed=s))) for s in self.order
        ]

    def run_pass(self) -> PassResult:
        sols, times = [], []
        for _, train, _ in self.instances:
            t0 = time.perf_counter()
            sols.append(_call(search.solve_exact, train))
            times.append(time.perf_counter() - t0)
        res = PassResult({"solve_s": sum(times)}, parts={"solve_s": times})
        for (s, _, test), (sol, err) in zip(self.instances, sols):
            if sol is None:
                res.check(False, f"seed {s}: {err}")
                continue
            res.check(sol.optimal and sol.loss == self.expected[s],
                      f"seed {s}: loss {sol.loss} optimal {sol.optimal}, "
                      f"expected {self.expected[s]}")
            res.incumbent_loss += sol.loss
            res.heldout_fp += problem.compute_loss(test, sol.config)
            res.stats.append(sol.stats)
        return res


def small_spec(seed: int) -> GenerateSpec:
    """Small-instance fuzz recipe: E in [2,5], P in [2,7], N in [5,40]."""
    rng = random.Random(seed)
    return GenerateSpec(
        seed=seed,
        num_classifiers=rng.randint(2, 5),
        num_positives=rng.randint(2, 7),
        num_negatives=rng.randint(5, 40),
        dimensions=rng.randint(3, 8),
        spread=rng.uniform(0.1, 0.4),
        noise=rng.uniform(0.05, 0.35),
        hardness_fraction=rng.choice([0.0, 0.25, 0.5]),
        hardness_scale=rng.uniform(0.55, 0.8),
    )


class FuzzWorkload:
    """``solve_exact`` on every small instance, then ``oracle_solve`` on every one."""

    steps = ("solve_s", "oracle_s")

    def __init__(self, count: int, seed: int):
        self.order = list(range(count))
        random.Random(seed).shuffle(self.order)
        self.seeds = f"0-{count - 1}"

    def setup(self, out_dir: Path) -> None:
        self.instances = [synthgen.generate(small_spec(s)) for s in self.order]

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        sols = [_call(search.solve_exact, train) for train, _ in self.instances]
        t1 = time.perf_counter()
        refs = [_call(oracle.oracle_solve, train) for train, _ in self.instances]
        t2 = time.perf_counter()
        res = PassResult({"solve_s": t1 - t0, "oracle_s": t2 - t1})
        for s, (_, test), (sol, err), (ref, ref_err) in zip(
                self.order, self.instances, sols, refs):
            res.check(ref is not None, f"seed {s}: oracle {ref_err}")
            if sol is None or ref is None:
                res.check(False, f"seed {s}: solve {err}, oracle {ref_err}")
                continue
            res.check(sol.loss == ref.loss,
                      f"seed {s}: solve loss {sol.loss} != oracle {ref.loss}")
            res.incumbent_loss += sol.loss
            res.heldout_fp += problem.compute_loss(test, sol.config)
            res.stats.append(sol.stats)
            res.oracle_cells += ref.enumerated
        return res


class AnytimeWorkload:
    """``calib solve --mode anytime --node-budget B`` in-process, then ``compare_methods``."""

    steps = ("solve_s", "compare_s")

    def __init__(self, spec: GenerateSpec, node_budget: int, seed: int):
        self.spec = spec
        self.node_budget = node_budget
        self.methods = list(COMPARE_METHODS)
        random.Random(seed).shuffle(self.methods)
        self.seeds = str(spec.seed)

    def setup(self, out_dir: Path) -> None:
        self.train, self.test = synthgen.generate(self.spec)
        self.train_path = out_dir / "anytime-train.json"
        self.solution_path = out_dir / "anytime-solution.json"
        problem.save_problem(self.train, self.train_path)

    def run_pass(self) -> PassResult:
        self.solution_path.unlink(missing_ok=True)
        argv = ["solve", str(self.train_path), "--mode", "anytime",
                "--node-budget", str(self.node_budget), "--out", str(self.solution_path)]
        t0 = time.perf_counter()
        code, err = _call(cli.main, argv)
        res = PassResult({"solve_s": time.perf_counter() - t0})
        sol = None
        if code == cli.EXIT_TRUNCATED:
            sol, err = _call(problem.load_solution, self.solution_path)
        else:
            err = err or f"exit code {code}, expected {cli.EXIT_TRUNCATED}"
        ok = False
        if sol is not None:
            ok, err = _call(lambda: bool(
                problem.check_feasible(self.train, sol.config)
                and sol.loss == problem.compute_loss(self.train, sol.config)))
        res.check(bool(ok), f"calib solve: {err or 'infeasible or wrong loss'}")
        if sol is None:
            res.check(False, "compare_methods: no solution to compare")
            return res
        res.incumbent_loss = sol.loss
        res.stats.append(sol.stats)

        t0 = time.perf_counter()
        report, err = _call(evaluation.compare_methods, self.train, self.test,
                            self.methods, solution=sol)
        res.timings["compare_s"] = time.perf_counter() - t0
        ok = report is not None and len(report.rows) == len(COMPARE_METHODS)
        if ok:
            rows = {row.method: row for row in report.rows}
            joint = rows.get("joint-thresholds")
            ok = (set(rows) == set(COMPARE_METHODS)
                  and joint.recall == report.reference_recall
                  and joint.fp == problem.compute_loss(self.test, sol.config)
                  and all(math.isfinite(row.ap) for row in report.rows))
            res.heldout_fp = joint.fp if joint is not None else 0
        res.check(ok, f"compare_methods: {err or 'rows fail their checks'}")
        return res


E30 = GenerateSpec(seed=1, num_classifiers=30, num_positives=60, num_negatives=1500,
                   dimensions=10, noise=0.15, spread=0.25,
                   hardness_fraction=0.2, hardness_scale=0.65)
E100 = GenerateSpec(seed=1, num_classifiers=100, num_positives=300, num_negatives=5000,
                    dimensions=12, noise=0.1, spread=0.2)

NAMES = ("exact-e30", "anytime-e100", "fuzz-small")


def make(name: str, seed: int, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    if name == "exact-e30":
        if tiny:
            spec = replace(E30, num_classifiers=6, num_positives=12, num_negatives=150)
            return ExactWorkload(spec, {1: 29, 2: 23, 3: 32}, seed)
        return ExactWorkload(E30, {1: 583, 2: 554, 3: 710}, seed)
    if name == "anytime-e100":
        if tiny:
            spec = replace(E100, num_classifiers=10, num_positives=30, num_negatives=300,
                           hardness_fraction=0.2, hardness_scale=0.65)
            return AnytimeWorkload(spec, node_budget=20, seed=seed)
        return AnytimeWorkload(E100, node_budget=2000, seed=seed)
    if name == "fuzz-small":
        return FuzzWorkload(count=20 if tiny else 1000, seed=seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def trace_targets():
    """(owner, attribute, span name) for every wrapped entry point of each layer.

    Each function is wrapped where its caller looks it up, so both the
    benchmark's own calls and the package's internal calls are seen.
    """
    state = cover.CoverState
    targets = [
        (synthgen, "generate", "synthgen.generate"),
        (problem, "save_problem", "problem.save_problem"),
        (cli, "main", "cli.main"),
        (cli, "load_problem", "problem.load_problem"),
        (cli, "save_solution", "problem.save_solution"),
        (cli, "solve_anytime", "search.solve"),
        (search, "solve_exact", "search.solve"),
        (search, "extract_candidates", "thresholds.extract_candidates"),
        (search, "difficulty_order", "thresholds.difficulty_order"),
        (search, "plan_tree", "search.plan_tree"),
        (state, "__init__", "cover.init"),
        (state, "peek_edge", "cover.peek_edge"),
        (state, "apply_edge", "cover.apply_edge"),
        (state, "undo_edge", "cover.undo_edge"),
        (oracle, "oracle_solve", "oracle.solve"),
        (oracle, "extract_candidates", "thresholds.extract_candidates"),
        (evaluation, "compare_methods", "evaluation.compare_methods"),
        (evaluation, "pr_curve", "evaluation.pr_curve"),
        (evaluation, "average_precision", "evaluation.average_precision"),
        (evaluation, "fp_at_recall", "evaluation.fp_at_recall"),
        (evaluation, "ensemble_scores", "calibrators.ensemble_scores"),
    ]
    for method in ("joint_thresholds", "joint_sigmoid", "independent_sigmoid",
                   "isotonic", "affine"):
        targets.append((evaluation, "fit_" + method, "calibrators.fit_" + method))
    return targets
