"""Command-line entry point: generate | solve | oracle | calibrate | evaluate | bench.

Diagnostics go to standard error; data goes to files or standard output.
Exit codes: 0 success/optimal, 1 usage, 2 validation or parse failure,
3 budget-truncated (feasible but not proven optimal), 4 oracle grid too
large.  CALIB_LOG={quiet,info,trace} controls stderr verbosity; ``trace``,
or ``solve --trace`` for one run, adds the search's incumbents.  A run
report's fields, on a log line or in a CSV, are loss, optimal and SearchStats's.
``generate``'s flags and a bench spec's generator keys are GenerateSpec's
fields; GenerateSpec and SearchOptions check every value they carry.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .calibrators import JOINT_METHODS, METHODS, load_model, save_model
from .errors import CalibError, InvalidSpec, ParseError, TooLarge
from .evaluation import (
    _average_precision,
    _ensemble_pair,
    _operating_point,
    _pr_curve,
    fit_method,
)
from .oracle import GRID_CAP, oracle_solve
from .problem import (
    _read_json,
    derive_assignment,
    load_problem,
    load_solution,
    save_problem,
    save_solution,
    SearchStats,
    Solution,
)
from .search import ABLATIONS, SearchOptions, solve_anytime, solve_exact
from .synthgen import _SPEC_KINDS, GenerateSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_TRUNCATED = 3
EXIT_TOO_LARGE = 4

log = logging.getLogger("calib")

# A run report's fields; the incumbent history fills no log line or CSV cell.
_RUN_FIELDS = ("loss", "optimal",
               *(f.name for f in fields(SearchStats) if f.name != "incumbent_history"))


def _run_values(solution: Solution) -> list:
    """The _RUN_FIELDS of one run, each float as %.3f text."""
    values = [solution.loss, solution.optimal,
              *(getattr(solution.stats, name) for name in _RUN_FIELDS[2:])]
    return [f"{v:.3f}" if isinstance(v, float) else v for v in values]


def _run_line(solution: Solution) -> str:
    return " ".join(f"{k}={v}" for k, v in zip(_RUN_FIELDS, _run_values(solution)))


class _NegativeNumber:
    """Matches a token that parses as a negative float: -1, -1e-3, -1E2, -inf."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad data.

    It also takes any negative float as an option's value, where argparse
    alone mistakes ``-inf`` or ``-1e-3`` for an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber()

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> tuple[list, int]:
    """Send the calib logger to this run's stderr at CALIB_LOG's level; return
    its handlers and level before, which main restores: none outlives its run."""
    saved = log.handlers[:], log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    level = os.environ.get("CALIB_LOG", "info").strip().lower()
    log.setLevel({"quiet": logging.WARNING, "trace": logging.DEBUG}.get(level, logging.INFO))
    return saved


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="calib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a seeded synthetic problem")
    # One flag per GenerateSpec field, of the field's kind; a field with a
    # default may be left unset, and then takes GenerateSpec's default.
    required = {f.name for f in fields(GenerateSpec) if f.default is MISSING}
    for flag, name in _SPEC_FIELDS.items():
        gen.add_argument("--" + flag.replace("_", "-"), type=_SPEC_KINDS[name],
                         required=name in required, default=argparse.SUPPRESS)
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
    solve.add_argument("--order-seed", type=int, help="seed of --random-order (default 0)")
    solve.add_argument("--trace", action="store_true",
                       help="log every incumbent to stderr, as CALIB_LOG=trace does")
    solve.add_argument("--out", required=True)

    oracle = sub.add_parser("oracle", help="brute-force the candidate grid")
    oracle.add_argument("problem")
    oracle.add_argument("--cap", type=int, default=GRID_CAP)
    oracle.add_argument("--out", help="also write a solution file")

    calibrate = sub.add_parser("calibrate", help="fit a calibration model")
    calibrate.add_argument("problem")
    calibrate.add_argument("--method", required=True, choices=METHODS)
    calibrate.add_argument("--solution", help="solution file for joint methods")
    calibrate.add_argument("--cutoff", type=float, default=-1.0)
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


# Names of GenerateSpec fields as `calib generate` flags (dashes read as
# underscores) and `calib bench` spec keys.
_SPEC_FIELDS = {
    "seed": "seed",
    "classifiers": "num_classifiers",
    "positives": "num_positives",
    "negatives": "num_negatives",
    "dims": "dimensions",
    "spread": "spread",
    "noise": "noise",
    "split": "split_fraction",
    "hardness": "hardness_fraction",
    "hardness_scale": "hardness_scale",
}


def _generate_spec(values: dict) -> GenerateSpec:
    """GenerateSpec from values keyed by _SPEC_FIELDS names; fields not
    given keep GenerateSpec's defaults."""
    return GenerateSpec(**{_SPEC_FIELDS[k]: v for k, v in values.items()})


def _cmd_generate(args) -> int:
    train, test = generate(_generate_spec(
        {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    ))
    save_problem(train, args.out)
    log.info("wrote %s (E=%d P=%d N=%d)", args.out, train.num_classifiers,
             train.num_positives, train.num_negatives)
    if args.test_out:
        save_problem(test, args.test_out)
        log.info("wrote %s (P=%d N=%d)", args.test_out,
                 test.num_positives, test.num_negatives)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.order_seed is not None and not args.random_order:
        print("calib solve: error: --order-seed needs --random-order", file=sys.stderr)
        return EXIT_USAGE
    if args.trace:
        log.setLevel(logging.DEBUG)
    problem = load_problem(args.problem)
    try:
        options = SearchOptions(
            enable_prune_bound=not args.no_prune_bound,
            enable_prune_equivalence=not args.no_prune_equiv,
            enable_depth_reduction=not args.no_depth_reduce,
            enable_difficulty_order=not args.random_order,
            budget_ms=args.budget_ms,
            node_budget=args.node_budget,
            random_order_seed=(args.order_seed or 0) if args.random_order else None,
        )
    except ValueError as e:
        raise InvalidSpec(str(e)) from e
    # --mode changes nothing: a budget is what makes a run anytime.
    solution = solve_anytime(problem, options)
    save_solution(solution, args.out)
    log.info("%s", _run_line(solution))
    return EXIT_OK if solution.optimal else EXIT_TRUNCATED


def _cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    result = oracle_solve(problem, cap=args.cap)
    print(json.dumps({
        "loss": result.loss,
        "thresholds": list(result.config),
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
    if args.method in JOINT_METHODS:
        if not args.solution:
            print(f"calib calibrate: error: --method {args.method} requires "
                  "--solution", file=sys.stderr)
            return EXIT_USAGE
        solution = load_solution(args.solution)
    model = fit_method(args.method, problem, solution, cutoff=args.cutoff)
    save_model(model, args.out)
    if model.degenerate:
        log.info("degenerate classifiers: %s",
                 " ".join(str(j) for j in model.degenerate))
    log.info("wrote %s (%s, E=%d)", args.out, model.method, model.num_classifiers)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    problem = load_problem(args.problem)
    pos, neg = _ensemble_pair(problem, model)  # scored once for the metric and curve
    if args.metric == "ap":
        print(f"ap {_average_precision(pos, neg)!r}")
    else:
        point = _operating_point(pos, neg, model.method, args.recall)
        print(f"fp {point.fp}")
        print(f"tau {point.tau!r}")
        print(f"recall {point.recall!r}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "score", "label", "precision", "recall"])
            for pt in _pr_curve(pos, neg):
                writer.writerow([pt.rank, repr(pt.score), pt.label,
                                 repr(pt.precision), repr(pt.recall)])
        log.info("wrote %s", args.csv)
    return EXIT_OK


# A bench spec sizes its problems as these unless it says otherwise; it
# sets every GenerateSpec field but the seed (from "seeds") and the split.
_BENCH_SIZES = {"classifiers": 8, "positives": 12, "negatives": 60}
# The search budgets are the bench spec's other keys.
_BENCH_KEYS = (set(_SPEC_FIELDS) - {"seed", "split"}) | {"seeds", "budget_ms", "node_budget"}


def _cmd_bench(args) -> int:
    doc = _read_json(args.spec)
    try:
        unknown = sorted(set(doc) - _BENCH_KEYS)
        if unknown:
            raise InvalidSpec(
                f"unknown bench spec key(s) {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(_BENCH_KEYS))}"
            )
        # GenerateSpec and SearchOptions check each value: true is no number or count.
        given = {**_BENCH_SIZES, **{k: v for k, v in doc.items() if k in _SPEC_FIELDS}}
        seeds = doc.get("seeds", [1])
        if not isinstance(seeds, list):
            raise ParseError("seeds is not an array")
        specs = [_generate_spec({**given, "seed": seed}) for seed in seeds]
        budgets = {k: doc[k] for k in ("budget_ms", "node_budget") if doc.get(k) is not None}
        ablations = [(name, SearchOptions(**budgets, **flags))
                     for name, flags in ABLATIONS.items()]
    except (CalibError, ValueError) as e:
        raise InvalidSpec(f"{args.spec}: {e}") from e
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nodes_path = out_dir / "bench_nodes.csv"
    curve_path = out_dir / "bench_incumbents.csv"
    with open(nodes_path, "w", newline="") as nf, \
            open(curve_path, "w", newline="") as cf:
        nodes_csv = csv.writer(nf)
        curve_csv = csv.writer(cf)
        nodes_csv.writerow(["config", "seed", *_RUN_FIELDS])
        curve_csv.writerow(["config", "seed", "elapsed_ms", "loss"])
        for spec in specs:
            seed = spec.seed
            train, _ = generate(spec)
            for name, options in ablations:
                solution = solve_exact(train, replace(options, random_order_seed=seed))
                nodes_csv.writerow([name, seed, *_run_values(solution)])
                for ms, loss in solution.stats.incumbent_history:
                    curve_csv.writerow([name, seed, f"{ms:.3f}", loss])
                log.info("bench %s seed=%d %s", name, seed, _run_line(solution))
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
    handlers, level = _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.verb](args)
    except TooLarge as e:
        print(f"calib {args.verb}: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except CalibError as e:
        print(f"calib {args.verb}: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"calib {args.verb}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as e:
        print(f"calib {args.verb}: out of memory: {e}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        log.handlers[:] = handlers
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
