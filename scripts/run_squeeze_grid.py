#!/usr/bin/env python3
"""Witness-search grid: (r, n0) in {0.5, 1.0} x {1, 2, 3} at T = 1, N = 32.

Writes one summary CSV row per cell plus the linear-flow calibration, and
prints the achieved radius as a fraction of the ball radius.  Every cell of
a correct setup should sit at or above 1.0 up to optimizer slack; anything
below 0.95 would contradict the non-squeezing bound numerically.

Then runs cell (r = 1, n0 = 1) at N = 16, 32, 64 and 128, the witness's
truncation check, and re-flows the witness of every nonlinear search with
rk4 at dt / 4 and with the implicit midpoint at dt = 0.005: each re-flowed
cylinder radius should match the search's to the digits printed.
"""

import argparse
import os

from bbmlab.flow import FlowConfig, integrate
from bbmlab.io import fmt
from bbmlab.squeeze import SqueezeConfig, cylinder_radius, maximize_image_radius

DT = 0.02
SWEEP_N = (16, 32, 64, 128)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="runs/squeeze_grid")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=16)
    ap.add_argument("--iters", type=int, default=12)
    args = ap.parse_args()

    def search(r, n0, n_modes):
        return maximize_image_radius(SqueezeConfig(
            r=r, n0=n0, T=1.0, flow=FlowConfig(N=n_modes, dt=DT), n_starts=args.starts,
            max_ascent_iters=args.iters, stall_tol=1e-5, seed=args.seed,
        ))

    os.makedirs(args.outdir, exist_ok=True)
    rows = ["r,n0,T,achieved_radius,achieved_over_r,linear_achieved_over_r,wall_time_s"]
    reports = []
    for r in (0.5, 1.0):
        for n0 in (1, 2, 3):
            rep = search(r, n0, 32)
            reports.append(rep)
            lin = maximize_image_radius(
                SqueezeConfig(
                    r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=DT, linear_only=True),
                    n_starts=4, max_ascent_iters=4, seed=args.seed,
                )
            )
            print(
                f"r={r} n0={n0}: achieved {rep.achieved_radius:.6f} "
                f"({rep.achieved_radius / r:.4f} r), linear {lin.achieved_radius / r:.9f} r, "
                f"{rep.wall_time:.2f} s"
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

    for n_modes in SWEEP_N:
        rep = search(1.0, 1, n_modes)
        reports.append(rep)
        print(f"r=1.0 n0=1 N={n_modes}: achieved {rep.achieved_radius:.7f} r, "
              f"{rep.wall_time:.2f} s")

    for rep in reports:
        cfg = rep.config
        refl = [
            cylinder_radius(integrate(rep.best_witness, cfg.T, flow).final, cfg.n0)
            for flow in (FlowConfig(N=cfg.flow.N, dt=DT / 4),
                         FlowConfig(N=cfg.flow.N, dt=0.005, integrator="implicit_midpoint"))
        ]
        print(f"witness r={cfg.r} n0={cfg.n0} N={cfg.flow.N}: search {rep.achieved_radius:.7f}, "
              f"rk4 dt/4 {refl[0]:.7f}, midpoint dt=0.005 {refl[1]:.7f}")


if __name__ == "__main__":
    main()
