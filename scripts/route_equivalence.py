#!/usr/bin/env python3
"""Sweep random interior kinematics and compare every evaluation route that
applies: explicit assembly, simplex oracle, contour shifts, closed-form mass
derivatives, duplicated columns.  Prints one row per comparison with the
relative spread."""

import argparse
import time

import numpy as np

from orthantloop.dimshift import (
    lower_dimension,
    raise_dimension,
    raise_power_duplicate,
    raise_power_pair,
    raise_power_single,
)
from orthantloop.kinematics import KinematicConfig, random_interior_config
from orthantloop.npoint import evaluate_unit, j3_2d, j5_4d
from orthantloop.kinematics import build_sigma
from orthantloop.oracle import MCSettings, feynman_oracle
from orthantloop.quadrature import QuadratureSettings


def row(label, values):
    spread = (max(abs(v) for v in values) - min(abs(v) for v in values)) \
        / max(abs(v) for v in values)
    print(f"{label:50s} " + "  ".join(f"{v:+.8f}" for v in values)
          + f"   spread {spread:.2e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--tol", type=float, default=1e-7)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    st = QuadratureSettings(rel_tol=args.tol, abs_tol=args.tol * 1e-4)
    mc = MCSettings(samples=2_000_000, seed=args.seed, batch=500_000)

    for trial in range(args.trials):
        print(f"--- trial {trial} ---")
        t0 = time.time()

        cfg = random_interior_config(rng, 3, n=2)
        row("three-point 2D: direct / contour / oracle",
            [j3_2d(cfg).value.real,
             lower_dimension(cfg, st).value.real,
             feynman_oracle(cfg).value.real])

        cfg = random_interior_config(rng, 3, n=5)
        row("three-point 5D: raise / oracle",
            [raise_dimension(cfg, st).value.real,
             feynman_oracle(cfg).value.real])

        cfg = random_interior_config(rng, 5, n=4)
        row("five-point 4D: direct / contour / MC oracle",
            [j5_4d(cfg).value.real,
             lower_dimension(cfg, st).value.real,
             feynman_oracle(cfg, mc).value.real])

        base = random_interior_config(rng, 3)
        raised = KinematicConfig(base.masses, np.array(base.invariants), (3, 1, 1), 5.0)
        row("power 3 on one leg: derivative / columns / oracle",
            [raise_power_single(raised, 0, st).value.real,
             raise_power_duplicate(raised, st).value.real,
             feynman_oracle(raised).value.real])

        paired = KinematicConfig(base.masses, np.array(base.invariants), (2, 2, 1), 5.0)
        row("power 2+2: derivative / columns / oracle",
            [raise_power_pair(paired, (0, 1), st).value.real,
             raise_power_duplicate(paired, st).value.real,
             feynman_oracle(paired).value.real])

        cfg = random_interior_config(rng, 6, n=4)
        row("six-point 4D: derivative / MC oracle",
            [lower_dimension(cfg, st).value.real,
             feynman_oracle(cfg, mc).value.real])

        cfg = random_interior_config(rng, 6, n=6)
        row("six-point 6D: assembly / MC oracle",
            [evaluate_unit(build_sigma(cfg).entries, 6, st).value.real,
             feynman_oracle(cfg, mc).value.real])

        print(f"    ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
