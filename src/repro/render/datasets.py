"""Synthetic volumetric datasets in the spirit of the paper's Fig. 10.

The paper renders a plume simulation (252x252x1024), a combustion
simulation (2025x1600x400), and a supernova simulation (864^3).  Those
datasets are not public; these procedural generators produce fields
with the same qualitative structure at configurable resolution:

* :func:`plume` — a buoyant turbulent column rising along +z,
* :func:`combustion` — wrinkled flame sheets around a stoichiometric
  surface of a noisy mixture-fraction field,
* :func:`supernova` — an expanding shell structure with angular
  perturbations and a hot core.

All return float32 volumes normalized to [0, 1].  The noise is seeded
value noise (trilinearly upsampled random lattices, summed over
octaves), so datasets are fully reproducible.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.render.volume import Volume
from repro.util.rng import SeedLike, make_rng


def value_noise(
    shape: Sequence[int],
    *,
    octaves: int = 3,
    base_cells: int = 4,
    persistence: float = 0.5,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Seeded multi-octave value noise, normalized to [0, 1].

    Each octave draws a coarse random lattice and trilinearly upsamples
    it to the target shape; octave ``o`` has ``base_cells * 2^o`` cells
    per axis and amplitude ``persistence^o``.
    """
    if octaves < 1:
        raise ValueError(f"octaves must be >= 1, got {octaves}")
    rng = make_rng(seed)
    out = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for o in range(octaves):
        cells = [min(s, base_cells * (2**o) + 1) for s in shape]
        lattice = rng.random(cells)
        zoom = [s / c for s, c in zip(shape, cells)]
        out += amplitude * ndimage.zoom(lattice, zoom, order=1)
        total += amplitude
        amplitude *= persistence
    out /= total
    lo, hi = out.min(), out.max()
    if hi > lo:
        out = (out - lo) / (hi - lo)
    return out


def _grid(shape: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized coordinates in [0, 1] per axis."""
    axes = [np.linspace(0.0, 1.0, s) for s in shape]
    return np.meshgrid(*axes, indexing="ij")  # type: ignore[return-value]


def _normalize(field: np.ndarray) -> np.ndarray:
    lo, hi = field.min(), field.max()
    if hi > lo:
        field = (field - lo) / (hi - lo)
    return field.astype(np.float32)


def plume(
    shape: Sequence[int] = (64, 64, 128),
    *,
    seed: SeedLike = 11,
) -> Volume:
    """A buoyant turbulent plume rising along +z."""
    x, y, z = _grid(shape)
    noise = value_noise(shape, octaves=4, base_cells=3, seed=seed)
    sway = 0.08 * np.sin(6.0 * z + 4.0 * noise)
    r = np.sqrt((x - 0.5 - sway) ** 2 + (y - 0.5 + 0.5 * sway) ** 2)
    # The column widens with height and its density decays upward.
    radius = 0.08 + 0.22 * z
    column = np.exp(-((r / radius) ** 2))
    density = column * (1.0 - 0.55 * z) * (0.55 + 0.9 * noise)
    density *= z > 0.02  # lift-off above the inlet
    return Volume(_normalize(density), name="plume")


def combustion(
    shape: Sequence[int] = (96, 72, 48),
    *,
    seed: SeedLike = 23,
) -> Volume:
    """Wrinkled flame sheets of a turbulent combustion field."""
    x, _y, _z = _grid(shape)
    mixture = 0.62 * x + 0.38 * value_noise(
        shape, octaves=4, base_cells=4, seed=seed
    )
    # Heat release peaks where the mixture fraction crosses
    # stoichiometry; two offset sheets give layered flame fronts.
    sheet1 = np.exp(-(((mixture - 0.45) / 0.045) ** 2))
    sheet2 = 0.6 * np.exp(-(((mixture - 0.62) / 0.07) ** 2))
    temperature = sheet1 + sheet2
    return Volume(_normalize(temperature), name="combustion")


def supernova(
    shape: Sequence[int] = (64, 64, 64),
    *,
    seed: SeedLike = 37,
) -> Volume:
    """Expanding shells with angular perturbation and a hot core."""
    x, y, z = _grid(shape)
    cx = x - 0.5
    cy = y - 0.5
    cz = z - 0.5
    r = np.sqrt(cx**2 + cy**2 + cz**2) / 0.5
    noise = value_noise(shape, octaves=4, base_cells=4, seed=seed)
    wobble = 0.12 * (noise - 0.5)
    shells = np.exp(-(((r + wobble - 0.72) / 0.08) ** 2)) + 0.7 * np.exp(
        -(((r + wobble - 0.45) / 0.06) ** 2)
    )
    core = 0.9 * np.exp(-((r / 0.16) ** 2))
    field = (shells + core) * (r < 1.05)
    return Volume(_normalize(field), name="supernova")


_GENERATORS = {
    "plume": plume,
    "combustion": combustion,
    "supernova": supernova,
}


def make_volume(
    name: str,
    shape: Sequence[int] = None,  # type: ignore[assignment]
    *,
    seed: SeedLike = None,
) -> Volume:
    """Build a named synthetic dataset (``plume`` / ``combustion`` /
    ``supernova``) at the given resolution."""
    generator = _GENERATORS.get(name)
    if generator is None:
        raise KeyError(
            f"unknown dataset {name!r}; valid: {sorted(_GENERATORS)}"
        )
    kwargs: Dict[str, object] = {}
    if shape is not None:
        if any(dim < 1 for dim in shape):
            raise ValueError(
                f"volume shape must be >= 1 in every dimension, "
                f"got {tuple(shape)}"
            )
        kwargs["shape"] = shape
    if seed is not None:
        kwargs["seed"] = seed
    return generator(**kwargs)  # type: ignore[arg-type]


DATASET_NAMES = tuple(sorted(_GENERATORS))

__all__ = [
    "value_noise",
    "plume",
    "combustion",
    "supernova",
    "make_volume",
    "DATASET_NAMES",
]
