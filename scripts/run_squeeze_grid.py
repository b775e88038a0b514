#!/usr/bin/env python3
"""Witness-search grid: (r, n0) in {0.5, 1.0} x {1, 2, 3} at T = 1, N = 32.

Writes one summary CSV row per cell plus the linear-flow calibration, and
prints the achieved radius as a fraction of the ball radius.  Every cell of
a correct setup should sit at or above 1.0 up to optimizer slack; anything
below 0.95 would contradict the non-squeezing bound numerically.
"""

import argparse
import os

from bbmlab.flow import FlowConfig
from bbmlab.io import fmt
from bbmlab.squeeze import SqueezeConfig, maximize_image_radius


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="runs/squeeze_grid")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=16)
    ap.add_argument("--iters", type=int, default=12)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    rows = ["r,n0,T,achieved_radius,achieved_over_r,linear_achieved_over_r,wall_time_s"]
    for r in (0.5, 1.0):
        for n0 in (1, 2, 3):
            cfg = SqueezeConfig(
                r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=args.starts,
                max_ascent_iters=args.iters, stall_tol=1e-5, seed=args.seed,
            )
            rep = maximize_image_radius(cfg)
            lin = maximize_image_radius(
                SqueezeConfig(
                    r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02, linear_only=True),
                    n_starts=4, max_ascent_iters=4, seed=args.seed,
                )
            )
            print(
                f"r={r} n0={n0}: achieved {rep.achieved_radius:.6f} "
                f"({rep.achieved_radius / r:.4f} r), linear {lin.achieved_radius / r:.9f} r, "
                f"{rep.wall_time:.0f} s"
            )
            rows.append(
                f"{fmt(r)},{n0},1,{fmt(rep.achieved_radius)},"
                f"{fmt(rep.achieved_radius / r)},{fmt(lin.achieved_radius / r)},"
                f"{rep.wall_time:.1f}"
            )
    path = os.path.join(args.outdir, "grid.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
