"""Planar coverage geometry between devices and base stations."""

from __future__ import annotations

import numpy as np

from repro.types import BoolArray, FloatArray

#: Devices per block of the coverage passes: each block's scratch is
#: ``ROW_BLOCK x K`` doubles, so no full ``(I, K)`` distance matrix is
#: ever allocated.
ROW_BLOCK = 1024


def distances(device_positions: FloatArray, bs_positions: FloatArray) -> FloatArray:
    """Pairwise Euclidean distances, shape ``(I, K)``.

    Computed as ``sqrt(dx * dx + dy * dy)`` in place on two ``(I, K)``
    buffers -- bitwise the same as reducing an ``(I, K, 2)`` difference
    tensor over its last axis, at under half the peak memory.

    Args:
        device_positions: ``(I, 2)`` device coordinates in metres.
        bs_positions: ``(K, 2)`` base-station coordinates in metres.
    """
    device_positions = np.asarray(device_positions, dtype=np.float64)
    bs_positions = np.asarray(bs_positions, dtype=np.float64)
    dist = np.subtract.outer(device_positions[:, 0], bs_positions[:, 0])
    dist *= dist
    dy = np.subtract.outer(device_positions[:, 1], bs_positions[:, 1])
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def coverage_matrix(
    device_positions: FloatArray,
    bs_positions: FloatArray,
    coverage_radii: FloatArray,
) -> BoolArray:
    """Boolean ``(I, K)`` matrix: device ``i`` is inside cell ``k``.

    A device may be covered by several base stations (overlapping cells of
    different sizes, per the paper's Fig. 1), or by none -- callers decide
    how to handle uncovered devices (the scenario builder guarantees
    coverage; the validator reports violations).  Distances are taken
    :data:`ROW_BLOCK` devices at a time; each entry is computed exactly
    as :func:`distances` computes it.
    """
    device_positions = np.asarray(device_positions, dtype=np.float64)
    radii = np.asarray(coverage_radii, dtype=np.float64)
    covered = np.empty((len(device_positions), radii.size), dtype=bool)
    for start in range(0, len(device_positions), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        np.less_equal(
            distances(device_positions[rows], bs_positions), radii, out=covered[rows]
        )
    return covered
