"""Task generators: per-slot draws of ``(f_t, d_t)``.

Three families:

* :class:`UniformTaskGenerator` -- the paper's simulation setting: each
  slot, ``f ~ U[50, 200]`` Mcycles and ``d ~ U[3, 10]`` Mbit per device.
* :class:`PeriodicTaskGenerator` -- the paper's *model*:
  ``f_{i,t} = fbar_{i,t} + e``, a periodic trend plus iid noise, i.e.
  non-iid states.  The trend is a per-device base demand scaled by a
  diurnal profile.
* :class:`TraceTaskGenerator` -- replay externally supplied arrays, for
  plugging in real traces.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import FloatArray, Rng
from repro.workload.tasks import TaskBatch
from repro.workload.traces import diurnal_profile


class TaskGenerator(abc.ABC):
    """Produces one :class:`TaskBatch` per slot."""

    #: Number of devices each batch covers.
    num_devices: int

    #: Period of the underlying trend (1 when iid).
    period: int = 1

    @abc.abstractmethod
    def generate(self, t: int, rng: Rng) -> TaskBatch:
        """Draw the tasks for slot *t*."""

    def subset(self, indices: "tuple[int, ...] | list[int]") -> "TaskGenerator":
        """A generator covering only the given device indices.

        Used by the sharding layer to carve per-cell workloads out of a
        global one.  Families whose devices are exchangeable (uniform
        draws) just shrink; families with per-device parameters slice
        them.  Subclasses without a meaningful restriction inherit this
        error.
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not support device subsetting"
        )


def _check_subset(indices, num_devices: int) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    if not indices.size:
        raise ConfigurationError("subset needs at least one device")
    if indices.min() < 0 or indices.max() >= num_devices:
        raise ConfigurationError(
            f"subset indices out of range for {num_devices} devices"
        )
    return indices


class UniformTaskGenerator(TaskGenerator):
    """Iid uniform task draws (paper Sec. VI-A).

    Args:
        num_devices: Number of devices ``I``.
        cycles_range: ``f`` range in CPU cycles (default 50-200 Mcycles).
        bits_range: ``d`` range in bits (default 3-10 Mbit).
    """

    def __init__(
        self,
        num_devices: int,
        *,
        cycles_range: tuple[float, float] = (50e6, 200e6),
        bits_range: tuple[float, float] = (3e6, 10e6),
    ) -> None:
        if num_devices <= 0:
            raise ConfigurationError("num_devices must be positive")
        for lo, hi, name in (
            (*cycles_range, "cycles_range"),
            (*bits_range, "bits_range"),
        ):
            if not 0 < lo <= hi:
                raise ConfigurationError(f"invalid {name}: [{lo}, {hi}]")
        self.num_devices = int(num_devices)
        self.cycles_range = cycles_range
        self.bits_range = bits_range
        self.period = 1

    def generate(self, t: int, rng: Rng) -> TaskBatch:
        del t
        return TaskBatch(
            cycles=rng.uniform(*self.cycles_range, size=self.num_devices),
            bits=rng.uniform(*self.bits_range, size=self.num_devices),
        )

    def subset(self, indices) -> "UniformTaskGenerator":
        indices = _check_subset(indices, self.num_devices)
        return UniformTaskGenerator(
            len(indices),
            cycles_range=self.cycles_range,
            bits_range=self.bits_range,
        )


class PeriodicTaskGenerator(TaskGenerator):
    """Non-iid tasks: periodic trend plus iid noise (paper Sec. III-A).

    ``f_{i,t} = base_cycles_i * profile[t mod D] + noise`` and likewise
    for ``d``; results are clipped at a small positive floor so latencies
    stay finite.

    Args:
        base_cycles: Per-device mean compute demand ``(I,)`` in cycles.
        base_bits: Per-device mean data length ``(I,)`` in bits.
        profile: Periodic multiplier of length ``D``; defaults to the
            standard diurnal profile with an evening peak.
        noise_cv: Coefficient of variation of the additive Gaussian noise
            (std = ``noise_cv *`` per-device base).
        floor_fraction: Demands are clipped below at this fraction of the
            per-device base.
    """

    def __init__(
        self,
        base_cycles: FloatArray,
        base_bits: FloatArray,
        *,
        profile: FloatArray | None = None,
        noise_cv: float = 0.1,
        floor_fraction: float = 0.05,
    ) -> None:
        base_cycles = np.asarray(base_cycles, dtype=np.float64)
        base_bits = np.asarray(base_bits, dtype=np.float64)
        if base_cycles.ndim != 1 or base_cycles.shape != base_bits.shape:
            raise ConfigurationError("base_cycles/base_bits must match, 1-D")
        if np.any(base_cycles <= 0) or np.any(base_bits <= 0):
            raise ConfigurationError("base demands must be positive")
        if noise_cv < 0:
            raise ConfigurationError("noise_cv must be non-negative")
        if not 0 < floor_fraction < 1:
            raise ConfigurationError("floor_fraction must lie in (0, 1)")
        if profile is None:
            profile = diurnal_profile()
        profile = np.asarray(profile, dtype=np.float64)
        if profile.ndim != 1 or profile.size == 0 or np.any(profile <= 0):
            raise ConfigurationError("profile must be a positive 1-D array")
        self.base_cycles = base_cycles
        self.base_bits = base_bits
        self.profile = profile
        self.noise_cv = float(noise_cv)
        self.floor_fraction = float(floor_fraction)
        self.num_devices = int(base_cycles.size)
        self.period = int(profile.size)

    def trend(self, t: int) -> tuple[FloatArray, FloatArray]:
        """The deterministic components ``(fbar_t, dbar_t)``."""
        mult = float(self.profile[t % self.period])
        return self.base_cycles * mult, self.base_bits * mult

    def generate(self, t: int, rng: Rng) -> TaskBatch:
        trend_cycles, trend_bits = self.trend(t)
        if self.noise_cv > 0:
            cycles = trend_cycles + self.noise_cv * self.base_cycles * (
                rng.standard_normal(self.num_devices)
            )
            bits = trend_bits + self.noise_cv * self.base_bits * (
                rng.standard_normal(self.num_devices)
            )
        else:
            cycles, bits = trend_cycles.copy(), trend_bits.copy()
        cycles = np.maximum(cycles, self.floor_fraction * self.base_cycles)
        bits = np.maximum(bits, self.floor_fraction * self.base_bits)
        return TaskBatch(cycles=cycles, bits=bits)

    def subset(self, indices) -> "PeriodicTaskGenerator":
        indices = _check_subset(indices, self.num_devices)
        return PeriodicTaskGenerator(
            self.base_cycles[indices],
            self.base_bits[indices],
            profile=self.profile,
            noise_cv=self.noise_cv,
            floor_fraction=self.floor_fraction,
        )


class TraceTaskGenerator(TaskGenerator):
    """Replay recorded per-slot demand arrays, repeating past the end.

    Args:
        cycles_trace: ``(T, I)`` compute demands.
        bits_trace: ``(T, I)`` data lengths.
    """

    def __init__(self, cycles_trace: FloatArray, bits_trace: FloatArray) -> None:
        cycles_trace = np.asarray(cycles_trace, dtype=np.float64)
        bits_trace = np.asarray(bits_trace, dtype=np.float64)
        if (
            cycles_trace.ndim != 2
            or cycles_trace.shape != bits_trace.shape
            or cycles_trace.size == 0
        ):
            raise ConfigurationError("traces must be matching non-empty (T, I) arrays")
        if np.any(cycles_trace < 0) or np.any(bits_trace < 0):
            raise ConfigurationError("trace demands must be non-negative")
        self.cycles_trace = cycles_trace
        self.bits_trace = bits_trace
        self.num_devices = int(cycles_trace.shape[1])
        self.period = int(cycles_trace.shape[0])

    def generate(self, t: int, rng: Rng) -> TaskBatch:
        del rng
        row = t % self.cycles_trace.shape[0]
        return TaskBatch(
            cycles=self.cycles_trace[row].copy(),
            bits=self.bits_trace[row].copy(),
        )

    def subset(self, indices) -> "TraceTaskGenerator":
        indices = _check_subset(indices, self.num_devices)
        return TraceTaskGenerator(
            self.cycles_trace[:, indices], self.bits_trace[:, indices]
        )
