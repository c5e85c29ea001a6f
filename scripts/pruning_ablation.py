#!/usr/bin/env python3
"""Pruning ablation sweep: node counts per disabled observation.

Runs the exact solver over seeded planted-hardness instances with each
pruning rule switched off, and prints a per-config summary (losses must
agree; node counts show what each rule buys).

    python3 scripts/pruning_ablation.py --seeds 20 --classifiers 12 --positives 20
"""

import argparse
import statistics

from calib import GenerateSpec, SearchOptions, generate, solve_exact
from calib.search import ABLATIONS

CONFIGS = list(ABLATIONS.items())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--classifiers", type=int, default=12)
    ap.add_argument("--positives", type=int, default=20)
    ap.add_argument("--negatives", type=int, default=120)
    ap.add_argument("--dims", type=int, default=10)
    ap.add_argument("--noise", type=float, default=0.12)
    ap.add_argument("--hardness", type=float, default=0.25)
    args = ap.parse_args()

    nodes: dict[str, list[int]] = {name: [] for name, _ in CONFIGS}
    wall: dict[str, list[float]] = {name: [] for name, _ in CONFIGS}
    for seed in range(1, args.seeds + 1):
        spec = GenerateSpec(
            seed=seed,
            num_classifiers=args.classifiers,
            num_positives=args.positives,
            num_negatives=args.negatives,
            dimensions=args.dims,
            noise=args.noise,
            hardness_fraction=args.hardness,
            hardness_scale=0.65,
        )
        train, _ = generate(spec)
        losses = set()
        for name, flags in CONFIGS:
            sol = solve_exact(train, SearchOptions(random_order_seed=seed, **flags))
            losses.add(sol.loss)
            nodes[name].append(sol.stats.nodes_visited)
            wall[name].append(sol.stats.wall_time_ms)
        assert len(losses) == 1, f"seed {seed}: ablation changed the optimum"

    print(f"{'config':<20} {'median nodes':>12} {'max nodes':>12} {'median ms':>10}")
    for name, _ in CONFIGS:
        print(
            f"{name:<20} {statistics.median(nodes[name]):>12.0f} "
            f"{max(nodes[name]):>12d} {statistics.median(wall[name]):>10.2f}"
        )


if __name__ == "__main__":
    main()
