"""Seeded input generator for the loewner-kit benchmark.

Writes these files into a directory:

* ``sin.csv``    201 knots of lambda(t) = sin(3 t + phi) on [0, 1],
* ``sin33.csv``  33 knots of the same function,
* ``grid.csv``   10^4 points in the box [-2, 2] x [0.05, 3.05],
* ``grid-0.csv`` ... ``grid-3.csv``  the same points in four consecutive
  quarters, the batches ``evolve-grid`` passes to the program.

Seed 0 gives phi = 0 and the regular 100 x 100 grid: the inputs of the
ROADMAP *Baseline*.  Any other seed draws phi uniformly from [0, 2 pi) and
the grid points uniformly from the same box, so the data change while the
cost stays the same.

    python3 perfbench/inputs.py --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

BOX = (-2.0, 2.0, 0.05, 3.05)
GRID_SIDE = 100
SIN_KNOTS = 201
SIN33_KNOTS = 33
# evolve-grid evolves the grid in this many batches.  A 10^4-point batch
# keeps about 1 MB of temporaries live, half the 2 MB L2 cache of the
# shared 2-CPU Xeon host it was measured on, and there its time swung by
# 30% with what other tenants ran; 2,500-point batches did not.
GRID_PARTS = 4


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus the parameters a reference needs."""

    seed: int
    phase: float
    sin: str
    sin33: str
    grid: str
    grid_parts: Tuple[str, ...]
    points: np.ndarray

    def driving(self, t):
        """The exact driving term the knot files sample."""
        return np.sin(3.0 * np.asarray(t, dtype=float) + self.phase)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def phase_of(seed: int) -> float:
    return 0.0 if seed == 0 else float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


def grid_points(seed: int, side: int = GRID_SIDE) -> np.ndarray:
    x0, x1, y0, y1 = BOX
    if seed == 0:
        xs, ys = np.meshgrid(np.linspace(x0, x1, side), np.linspace(y0, y1, side))
        return (xs + 1j * ys).ravel()
    # a stream separate from the phase draw, so the phase of seed n does not
    # depend on the grid size
    rng = np.random.default_rng([seed, 1])
    n = side * side
    return rng.uniform(x0, x1, n) + 1j * rng.uniform(y0, y1, n)


def _knots(n: int, phase: float):
    ts = [j / (n - 1) for j in range(n)]
    return ts, [math.sin(3.0 * t + phase) for t in ts]


def _write(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(_fmt(x) for x in row) + "\n" for row in rows)


def generate(
    seed: int,
    out_dir: str,
    sin_knots: int = SIN_KNOTS,
    sin33_knots: int = SIN33_KNOTS,
    grid_side: int = GRID_SIDE,
) -> Inputs:
    """Write the input files for ``seed`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    phase = phase_of(seed)
    paths = {}
    for name, n in (("sin", sin_knots), ("sin33", sin33_knots)):
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        _write(paths[name], "t,lambda", zip(*_knots(n, phase)))
    points = grid_points(seed, grid_side)
    paths["grid"] = os.path.join(out_dir, "grid.csv")
    _write(paths["grid"], "re,im", ((z.real, z.imag) for z in points))
    parts = []
    for k, part in enumerate(np.array_split(points, GRID_PARTS)):
        parts.append(os.path.join(out_dir, f"grid-{k}.csv"))
        _write(parts[-1], "re,im", ((z.real, z.imag) for z in part))
    return Inputs(seed, phase, paths["sin"], paths["sin33"], paths["grid"], tuple(parts), points)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()
    gen = generate(args.seed, args.out)
    print(f"phase {gen.phase!r}: wrote {gen.sin}, {gen.sin33}, {gen.grid}, "
          f"{', '.join(gen.grid_parts)}")


if __name__ == "__main__":
    main()
