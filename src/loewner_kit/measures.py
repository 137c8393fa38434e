"""Finite positive measures on the real line: atoms plus a piecewise
polynomial density on bounded intervals.

These feed the half-plane integral representations in
:mod:`loewner_kit.classes`.  Density integrals against the Cauchy kernel use
Gauss-Legendre quadrature per piece, with node doubling until two refinement
levels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import InvalidMap, QuadratureBudget

__all__ = ["DensityPiece", "MeasureSpec"]

_GL_CACHE: dict = {}


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


@dataclass(frozen=True)
class DensityPiece:
    """Polynomial density sum(coeffs[k] * x**k) on [lo, hi], nonnegative."""

    lo: float
    hi: float
    coeffs: Tuple[float, ...]

    def __post_init__(self):
        if not self.hi > self.lo:
            raise InvalidMap("density piece needs hi > lo")
        xs = np.linspace(self.lo, self.hi, 65)
        if np.any(self.values(xs) < -1e-12):
            raise InvalidMap("density piece takes negative values")

    def values(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    @property
    def mass(self) -> float:
        # exact polynomial integral
        total = 0.0
        for k, c in enumerate(self.coeffs):
            total += c * (self.hi ** (k + 1) - self.lo ** (k + 1)) / (k + 1)
        return total


@dataclass(frozen=True)
class MeasureSpec:
    """Finite positive Borel measure: point masses plus an optional density.

    ``atoms`` is a tuple of (location, mass) with all masses > 0.  The cached
    ``total_mass`` always equals the sum of atom masses and density integrals
    (checked to 1e-12 relative at construction when supplied explicitly).
    """

    atoms: Tuple[Tuple[float, float], ...] = ()
    density: Tuple[DensityPiece, ...] = ()
    total_mass: float = field(default=None)

    def __post_init__(self):
        for x, m in self.atoms:
            if not (math.isfinite(x) and math.isfinite(m)):
                raise InvalidMap("atom location and mass must be finite")
            if m <= 0:
                raise InvalidMap(f"atom mass must be positive, got {m}")
        computed = sum(m for _, m in self.atoms) + sum(p.mass for p in self.density)
        if not math.isfinite(computed):
            raise InvalidMap("total mass must be finite")
        if self.total_mass is None:
            object.__setattr__(self, "total_mass", computed)
        elif abs(self.total_mass - computed) > 1e-12 * max(1.0, abs(computed)):
            raise InvalidMap(
                f"declared total mass {self.total_mass} != computed {computed}"
            )

    @classmethod
    def from_atoms(cls, *atoms) -> "MeasureSpec":
        return cls(atoms=tuple((float(x), float(m)) for x, m in atoms))

    @classmethod
    def point_mass(cls, mass: float, location: float = 0.0) -> "MeasureSpec":
        return cls.from_atoms((location, mass))

    @classmethod
    def empty(cls) -> "MeasureSpec":
        return cls()

    def cauchy_sum(self, z, power: int = 1, max_nodes: int = 1024):
        """sum over the measure of 1/(x - z)**power.

        Atoms are summed directly; each density piece is integrated by
        Gauss-Legendre with node doubling (32, 64, ...) until two levels
        agree to 1e-10, raising :class:`QuadratureBudget` past ``max_nodes``.
        """
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for x, m in self.atoms:
            out = out + m / (x - z) ** power
        for piece in self.density:
            out = out + _integrate_piece(piece, z, power, max_nodes)
        return out

    def cayley_weight(self) -> float:
        """Integral of x / (1 + x^2), the Nevanlinna centering term."""
        total = sum(m * x / (1.0 + x * x) for x, m in self.atoms)
        for piece in self.density:
            xs, ws = _gl_nodes(128)
            x = 0.5 * (piece.hi - piece.lo) * xs + 0.5 * (piece.hi + piece.lo)
            w = 0.5 * (piece.hi - piece.lo) * ws
            total += float(np.sum(w * piece.values(x) * x / (1.0 + x * x)))
        return total

    def to_spec(self) -> dict:
        return {
            "atoms": [[x, m] for x, m in self.atoms],
            "density": [[p.lo, p.hi, list(p.coeffs)] for p in self.density],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "MeasureSpec":
        atoms = tuple((float(x), float(m)) for x, m in spec.get("atoms", ()))
        density = tuple(
            DensityPiece(float(lo), float(hi), tuple(float(c) for c in coeffs))
            for lo, hi, coeffs in spec.get("density", ())
        )
        return cls(atoms=atoms, density=density)


def _integrate_piece(piece: DensityPiece, z, power: int, max_nodes: int):
    half = 0.5 * (piece.hi - piece.lo)
    mid = 0.5 * (piece.hi + piece.lo)

    def quad(n):
        xs, ws = _gl_nodes(n)
        x = half * xs + mid
        w = half * ws
        vals = piece.values(x)
        # broadcast nodes against evaluation points
        kernel = 1.0 / (x.reshape(-1, *(1,) * z.ndim) - z) ** power
        return np.tensordot(w * vals, kernel, axes=(0, 0))

    n = 32
    prev = quad(n)
    while True:
        n *= 2
        if n > max_nodes:
            raise QuadratureBudget(
                f"density quadrature did not settle within {max_nodes} nodes"
            )
        cur = quad(n)
        scale = 1.0 + np.max(np.abs(cur))
        if np.max(np.abs(cur - prev)) <= 1e-10 * scale:
            return cur
        prev = cur
