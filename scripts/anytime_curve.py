#!/usr/bin/env python3
"""Incumbent-loss trajectory of the anytime search on one instance.

Prints (elapsed ms, loss) pairs for a single budgeted run, then the final
loss per budget over a sweep, to show how quickly the first feasible
solutions approach the optimum.

    python3 scripts/anytime_curve.py --classifiers 40 --positives 100 --budget-ms 2000
"""

import argparse

from calib import GenerateSpec, SearchOptions, generate, solve_exact

BUDGET_SWEEP = (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--classifiers", type=int, default=40)
    ap.add_argument("--positives", type=int, default=100)
    ap.add_argument("--negatives", type=int, default=2000)
    ap.add_argument("--dims", type=int, default=10)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--budget-ms", type=float, default=2000.0)
    args = ap.parse_args()

    spec = GenerateSpec(
        seed=args.seed,
        num_classifiers=args.classifiers,
        num_positives=args.positives,
        num_negatives=args.negatives,
        dimensions=args.dims,
        noise=args.noise,
        spread=0.25,
    )
    train, _ = generate(spec)
    sol = solve_exact(
        train, SearchOptions(budget_ms=args.budget_ms)
    )
    tag = "optimal" if sol.optimal else "truncated"
    print(f"single run, budget {args.budget_ms:.0f} ms ({tag}):")
    for ms, loss in sol.stats.incumbent_history:
        print(f"  {ms:>10.1f} ms  loss {loss}")

    print("\nbudget sweep:")
    for budget in BUDGET_SWEEP:
        s = solve_exact(train, SearchOptions(budget_ms=budget))
        kind = "fallback" if s.fallback else ("optimal" if s.optimal else "incumbent")
        print(f"  {budget:>7.0f} ms  loss {s.loss:>5d}  ({kind})")


if __name__ == "__main__":
    main()
