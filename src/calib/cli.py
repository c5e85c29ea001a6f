"""Command-line entry point: generate | solve | oracle | calibrate | evaluate | bench.

Diagnostics go to standard error; data goes to files or standard output.
Exit codes: 0 success/optimal, 1 usage, 2 validation or parse failure,
3 budget-truncated (feasible but not proven optimal), 4 oracle grid too
large.  CALIB_LOG={quiet,info,trace} controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .calibrators import (
    METHODS,
    fit_affine,
    fit_independent_sigmoid,
    fit_isotonic,
    fit_joint_sigmoid,
    fit_joint_thresholds,
    load_model,
    save_model,
)
from .errors import CalibError, InvalidSpec, TooLarge
from .evaluation import average_precision, fp_at_recall, pr_curve
from .oracle import oracle_solve
from .problem import (
    _read_json,
    derive_assignment,
    load_problem,
    load_solution,
    save_problem,
    save_solution,
    SearchStats,
    Solution,
    ThresholdConfig,
)
from .search import (
    ABLATIONS,
    PRUNING_FLAGS,
    SearchOptions,
    solve_anytime,
    solve_exact,
)
from .synthgen import GenerateSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_TRUNCATED = 3
EXIT_TOO_LARGE = 4

log = logging.getLogger("calib")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level = os.environ.get("CALIB_LOG", "info").strip().lower()
    numeric = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers.clear()
    log.addHandler(handler)
    log.setLevel(numeric.get(level, logging.INFO))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="calib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a seeded synthetic problem")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--classifiers", type=int, required=True)
    gen.add_argument("--positives", type=int, required=True)
    gen.add_argument("--negatives", type=int, required=True)
    gen.add_argument("--dims", type=int, default=16)
    gen.add_argument("--spread", type=float, default=0.15)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument("--split", type=float, default=0.5)
    gen.add_argument("--hardness", type=float, default=0.0)
    gen.add_argument("--hardness-scale", type=float, default=0.55)
    gen.add_argument("--out", required=True, help="training problem file")
    gen.add_argument("--test-out", help="also write the held-out problem")

    solve = sub.add_parser("solve", help="jointly optimize thresholds")
    solve.add_argument("problem")
    solve.add_argument(
        "--mode", choices=("exact", "anytime"), default="exact",
        help="accepted for compatibility; a budget is what makes a run anytime",
    )
    solve.add_argument("--budget-ms", type=float)
    solve.add_argument("--node-budget", type=int)
    solve.add_argument("--no-prune-bound", action="store_true")
    solve.add_argument("--no-prune-equiv", action="store_true")
    solve.add_argument("--no-depth-reduce", action="store_true")
    solve.add_argument(
        "--random-order", action="store_true",
        help="replace difficulty ordering with a seeded shuffle",
    )
    solve.add_argument("--order-seed", type=int, default=0)
    solve.add_argument("--trace", action="store_true",
                       help="stream incumbent improvements to stderr")
    solve.add_argument("--out", required=True)

    oracle = sub.add_parser("oracle", help="brute-force the candidate grid")
    oracle.add_argument("problem")
    oracle.add_argument("--cap", type=int, default=10_000_000)
    oracle.add_argument("--out", help="also write a solution file")

    calibrate = sub.add_parser("calibrate", help="fit a calibration model")
    calibrate.add_argument("problem")
    calibrate.add_argument("--method", required=True, choices=METHODS)
    calibrate.add_argument("--solution", help="solution file for joint methods")
    calibrate.add_argument("--cutoff", type=float, default=-1.0)
    calibrate.add_argument("--sample-count", type=int, default=200_000)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--out", required=True)

    evaluate = sub.add_parser("evaluate", help="score a model on a held-out problem")
    evaluate.add_argument("model")
    evaluate.add_argument("problem")
    evaluate.add_argument("--metric", choices=("ap", "fp-at-recall"), required=True)
    evaluate.add_argument("--recall", type=float, default=1.0)
    evaluate.add_argument("--csv", help="write the PR curve as CSV")

    bench = sub.add_parser("bench", help="run the pruning-ablation grid")
    bench.add_argument("spec", help="JSON bench specification")
    bench.add_argument("--out-dir", default=".")
    return parser


def _cmd_generate(args) -> int:
    spec = GenerateSpec(
        seed=args.seed,
        num_classifiers=args.classifiers,
        num_positives=args.positives,
        num_negatives=args.negatives,
        dimensions=args.dims,
        spread=args.spread,
        noise=args.noise,
        split_fraction=args.split,
        hardness_fraction=args.hardness,
        hardness_scale=args.hardness_scale,
    )
    train, test = generate(spec)
    save_problem(train, args.out)
    log.info("wrote %s (E=%d P=%d N=%d)", args.out, train.num_classifiers,
             train.num_positives, train.num_negatives)
    if args.test_out:
        save_problem(test, args.test_out)
        log.info("wrote %s (P=%d N=%d)", args.test_out,
                 test.num_positives, test.num_negatives)
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    trace = None
    if args.trace or log.isEnabledFor(logging.DEBUG):
        def trace(ms, nodes, loss):
            print(f"incumbent ms={ms:.3f} nodes={nodes} loss={loss}",
                  file=sys.stderr)
    options = SearchOptions(
        enable_prune_bound=not args.no_prune_bound,
        enable_prune_equivalence=not args.no_prune_equiv,
        enable_depth_reduction=not args.no_depth_reduce,
        enable_difficulty_order=not args.random_order,
        budget_ms=args.budget_ms,
        node_budget=args.node_budget,
        random_order_seed=args.order_seed if args.random_order else None,
        trace=trace,
    )
    # Both names are the same search (see search.solve_anytime).
    solver = solve_exact if args.mode == "exact" else solve_anytime
    solution = solver(problem, options)
    save_solution(solution, args.out)
    log.info(
        "loss=%d optimal=%s nodes=%d pruned_bound=%d pruned_equiv=%d "
        "root_removed=%d wall_ms=%.1f",
        solution.loss, solution.optimal, solution.stats.nodes_visited,
        solution.stats.nodes_pruned_bound, solution.stats.nodes_pruned_equivalence,
        solution.stats.positives_removed_by_root, solution.stats.wall_time_ms,
    )
    return EXIT_OK if solution.optimal else EXIT_TRUNCATED


def _cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    result = oracle_solve(problem, cap=args.cap)
    print(json.dumps({
        "loss": result.loss,
        "thresholds": list(result.config.thresholds),
        "enumerated": result.enumerated,
    }))
    if args.out:
        stats = SearchStats(nodes_visited=result.enumerated)
        solution = Solution(
            config=result.config,
            loss=result.loss,
            assignment=derive_assignment(problem, result.config),
            optimal=True,
            stats=stats,
        )
        save_solution(solution, args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    problem = load_problem(args.problem)
    solution = None
    if args.method in ("joint-sigmoid", "joint-thresholds"):
        if not args.solution:
            print(f"calib calibrate: error: --method {args.method} requires "
                  "--solution", file=sys.stderr)
            return EXIT_USAGE
        solution = load_solution(args.solution)
    if args.method == "independent-sigmoid":
        model = fit_independent_sigmoid(problem, cutoff=args.cutoff)
    elif args.method == "joint-sigmoid":
        model = fit_joint_sigmoid(problem, solution)
    elif args.method == "isotonic":
        model = fit_isotonic(problem)
    elif args.method == "affine":
        model = fit_affine(problem, sample_count=args.sample_count, seed=args.seed)
    else:
        model = fit_joint_thresholds(problem, solution)
    save_model(model, args.out)
    if model.degenerate:
        log.info("degenerate classifiers: %s",
                 " ".join(str(j) for j in model.degenerate))
    log.info("wrote %s (%s, E=%d)", args.out, model.method, model.num_classifiers)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    problem = load_problem(args.problem)
    if args.metric == "ap":
        print(f"ap {average_precision(problem, model)!r}")
    else:
        point = fp_at_recall(problem, model, args.recall)
        print(f"fp {point.fp}")
        print(f"tau {point.tau!r}")
        print(f"recall {point.recall!r}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "score", "label", "precision", "recall"])
            for pt in pr_curve(problem, model):
                writer.writerow([pt.rank, repr(pt.score), pt.label,
                                 repr(pt.precision), repr(pt.recall)])
        log.info("wrote %s", args.csv)
    return EXIT_OK


_BENCH_KEYS = {
    "seeds", "ablations", "classifiers", "positives", "negatives", "dims",
    "spread", "noise", "hardness", "hardness_scale", "budget_ms", "node_budget",
}


def _bench_ablations(doc: dict) -> list[tuple[str, dict]]:
    """Named pruning-flag sets of a bench spec; the shared table by default."""
    if "ablations" not in doc:
        return list(ABLATIONS.items())
    out = []
    for entry in doc["ablations"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise InvalidSpec(f"ablation {entry!r} needs a string 'name'")
        flags = {k: v for k, v in entry.items() if k != "name"}
        unknown = sorted(set(flags) - set(PRUNING_FLAGS))
        if unknown:
            raise InvalidSpec(
                f"ablation {entry['name']!r}: unknown flag(s) {', '.join(unknown)}; "
                f"known flags: {', '.join(PRUNING_FLAGS)}"
            )
        if not all(isinstance(v, bool) for v in flags.values()):
            raise InvalidSpec(f"ablation {entry['name']!r}: flags must be true or false")
        out.append((entry["name"], flags))
    return out


def _cmd_bench(args) -> int:
    doc = _read_json(args.spec)
    unknown = sorted(set(doc) - _BENCH_KEYS)
    if unknown:
        raise InvalidSpec(
            f"unknown bench spec key(s) {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(_BENCH_KEYS))}"
        )
    try:
        specs = [
            GenerateSpec(
                seed=seed,
                num_classifiers=doc.get("classifiers", 8),
                num_positives=doc.get("positives", 12),
                num_negatives=doc.get("negatives", 60),
                dimensions=doc.get("dims", 16),
                spread=doc.get("spread", 0.15),
                noise=doc.get("noise", 0.05),
                hardness_fraction=doc.get("hardness", 0.0),
                hardness_scale=doc.get("hardness_scale", 0.55),
            )
            for seed in doc.get("seeds", [1])
        ]
        ablations = [
            (name, SearchOptions(budget_ms=doc.get("budget_ms"),
                                 node_budget=doc.get("node_budget"), **flags))
            for name, flags in _bench_ablations(doc)
        ]
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"{args.spec}: {e}") from e
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nodes_path = out_dir / "bench_nodes.csv"
    curve_path = out_dir / "bench_incumbents.csv"
    with open(nodes_path, "w", newline="") as nf, \
            open(curve_path, "w", newline="") as cf:
        nodes_csv = csv.writer(nf)
        curve_csv = csv.writer(cf)
        nodes_csv.writerow([
            "config", "seed", "loss", "optimal", "nodes_visited",
            "nodes_pruned_bound", "nodes_pruned_equivalence",
            "positives_removed_by_root", "levels", "wall_ms",
        ])
        curve_csv.writerow(["config", "seed", "elapsed_ms", "loss"])
        for spec in specs:
            seed = spec.seed
            train, _ = generate(spec)
            for name, options in ablations:
                solution = solve_exact(train, replace(options, random_order_seed=seed))
                stats = solution.stats
                nodes_csv.writerow([
                    name, seed, solution.loss, solution.optimal,
                    stats.nodes_visited, stats.nodes_pruned_bound,
                    stats.nodes_pruned_equivalence,
                    stats.positives_removed_by_root, stats.levels,
                    f"{stats.wall_time_ms:.3f}",
                ])
                for ms, loss in stats.incumbent_history:
                    curve_csv.writerow([name, seed, f"{ms:.3f}", loss])
                log.info("bench %s seed=%d loss=%d nodes=%d", name, seed,
                         solution.loss, stats.nodes_visited)
    log.info("wrote %s and %s", nodes_path, curve_path)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "calibrate": _cmd_calibrate,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except TooLarge as e:
        print(f"calib {args.verb}: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except CalibError as e:
        print(f"calib {args.verb}: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError) as e:
        print(f"calib {args.verb}: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
