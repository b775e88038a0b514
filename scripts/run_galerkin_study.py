#!/usr/bin/env python3
"""Galerkin truncation study: defect of the nonlinear part vs cutoff.

Flows the shipped smooth state at a reference truncation and measures the Z
distance to the nonlinear part of progressively coarser truncations.  The
defect should decay fast once the cutoff clears the data's support.
"""

import argparse
import os

from bbmlab.flow import FlowConfig, galerkin_defect, nonlinear_part
from bbmlab.io import write_galerkin_csv
from bbmlab.sampling import smooth_profile


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="runs/galerkin_study")
    ap.add_argument("--n-ref", type=int, default=128)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    u0 = smooth_profile(args.n_ref)
    cfg = FlowConfig(N=args.n_ref, dt=args.dt)
    cutoffs = [4, 8, 16, 24, 32, 48, 64]
    full = nonlinear_part(u0, args.horizon, cfg)  # the reference, flowed once for every cutoff
    rows = []
    for n_small in cutoffs:
        if n_small >= args.n_ref:
            continue
        defect = galerkin_defect(u0, args.horizon, n_small, cfg, full)
        rows.append((n_small, defect))
        print(f"N_small = {n_small:3d}: defect = {defect:.6e}")
    path = os.path.join(args.outdir, "defects.csv")
    write_galerkin_csv(path, rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
