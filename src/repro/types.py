"""Shared type aliases used across the :mod:`repro` package.

These aliases document intent: a ``FloatArray`` is always a
``numpy.ndarray`` of ``float64``, an ``IntArray`` an array of ``int64``.
Shapes are documented at use sites with the paper's notation:

* ``I`` -- number of mobile devices,
* ``K`` -- number of base stations,
* ``N`` -- number of edge servers,
* ``M`` -- number of server clusters.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np
import numpy.typing as npt

FloatArray: TypeAlias = npt.NDArray[np.float64]
IntArray: TypeAlias = npt.NDArray[np.int64]
BoolArray: TypeAlias = npt.NDArray[np.bool_]

#: A numpy random generator; every stochastic component takes one explicitly.
Rng: TypeAlias = np.random.Generator


def as_float_array(values: object, name: str = "array") -> FloatArray:
    """Convert *values* to a contiguous float64 array, validating finiteness.

    Raises ``ValueError`` when the input contains NaNs or infinities,
    naming the offending argument for easier debugging.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return arr


def as_int_array(values: object, name: str = "array") -> IntArray:
    """Convert *values* to a contiguous int64 array."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    del name
    return arr
