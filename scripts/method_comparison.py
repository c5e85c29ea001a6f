#!/usr/bin/env python3
"""Held-out comparison of joint calibration against per-classifier baselines.

For each seed: generate a planted-cluster train/test pair, solve the joint
thresholds (anytime, budgeted), then report false positives at the joint
recall point and AP for every method.

    python3 scripts/method_comparison.py --seeds 10 --budget-ms 2000
"""

import argparse
import statistics

from calib import GenerateSpec, SearchOptions, compare_methods, generate, solve_exact

METHODS = [
    "joint-thresholds",
    "joint-sigmoid",
    "independent-sigmoid",
    "isotonic",
    "affine",
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--classifiers", type=int, default=60)
    ap.add_argument("--positives", type=int, default=150)
    ap.add_argument("--negatives", type=int, default=2500)
    ap.add_argument("--dims", type=int, default=12)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--budget-ms", type=float, default=2000.0)
    args = ap.parse_args()

    fp: dict[str, list[int]] = {m: [] for m in METHODS}
    ap_scores: dict[str, list[float]] = {m: [] for m in METHODS}
    recalls = []
    for seed in range(1, args.seeds + 1):
        spec = GenerateSpec(
            seed=seed,
            num_classifiers=args.classifiers,
            num_positives=args.positives,
            num_negatives=args.negatives,
            dimensions=args.dims,
            noise=args.noise,
            spread=0.2,
        )
        train, test = generate(spec)
        solution = solve_exact(
            train, SearchOptions(budget_ms=args.budget_ms)
        )
        report = compare_methods(train, test, METHODS, solution=solution)
        recalls.append(report.reference_recall)
        for row in report.rows:
            fp[row.method].append(row.fp)
            ap_scores[row.method].append(row.ap)
        print(
            f"seed {seed:>3}: recall {report.reference_recall:.3f}  "
            + "  ".join(f"{r.method}: fp={r.fp} ap={r.ap:.3f}" for r in report.rows)
        )

    print()
    print(f"reference recall: median {statistics.median(recalls):.3f}")
    print(f"{'method':<22} {'median fp':>10} {'median AP':>10}")
    for m in METHODS:
        print(
            f"{m:<22} {statistics.median(fp[m]):>10.0f} "
            f"{statistics.median(ap_scores[m]):>10.3f}"
        )


if __name__ == "__main__":
    main()
