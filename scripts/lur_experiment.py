#!/usr/bin/env python3
"""Multi-seed learning-unlearning-relearning experiment with a summary table.

Runs the 0/90/0 degree phase protocol across seeds and reports per-seed
interference (error jump at the conflicting switch) and savings (change in
trials-to-criterion on return; negative means relearning was faster).

Usage: python scripts/lur_experiment.py [--seeds 20] [--trials 200]
"""

import argparse
import statistics
import sys

from regulab.cli import finite_float, positive_int
from regulab.procedural import LurSchedule, ReachLearner, run_lur


def main() -> int:
    # No usage text on error: a bad argument is reported in one line.
    ap = argparse.ArgumentParser(description=__doc__, usage=argparse.SUPPRESS)
    ap.add_argument("--seeds", type=positive_int, default=20)
    ap.add_argument("--trials", type=positive_int, default=200)
    ap.add_argument("--gain", type=finite_float, default=1.0)
    ap.add_argument("--noise", type=finite_float, default=0.02)
    args = ap.parse_args()

    rows = []
    try:
        sched = LurSchedule(((0.0, args.trials), (90.0, args.trials), (0.0, args.trials)))
        for seed in range(args.seeds):
            res = run_lur(ReachLearner(), sched, noise=args.noise, gain=args.gain, seed=seed)
            rows.append((seed, res.interference, res.savings))
    except ValueError as exc:  # a schedule over its budget or a negative noise
        ap.error(str(exc))

    print(f"{'seed':>4}  {'interference':>12}  {'savings':>8}")
    for seed, inter, sav in rows:
        print(f"{seed:>4}  {inter:>12.5f}  {sav:>8.0f}")
    inters = [r[1] for r in rows]
    savs = [r[2] for r in rows]
    print(
        f"\ninterference > 0 in {sum(i > 0 for i in inters)}/{len(rows)} seeds"
        f" (median {statistics.median(inters):.4f})"
    )
    print(
        f"savings < 0 in {sum(s < 0 for s in savs)}/{len(rows)} seeds"
        f" (median {statistics.median(savs):.0f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
