"""Per-slot system state ``beta_t`` and decision types ``alpha_t``.

The paper's binary matrices ``x_{i,k,t}`` and ``y_{i,n,t}`` each have a
single 1 per row (constraints (1)-(2)), so we store them as index
vectors: ``bs_of[i] = k`` and ``server_of[i] = n``.  Conversion helpers
produce the one-hot form when the algebra is easier to read that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.network.topology import MECNetwork
from repro.types import FloatArray, IntArray, as_float_array, as_int_array


@dataclass(frozen=True)
class SlotState:
    """The observed system state ``beta_t = (f_t, d_t, h_t, p_t)``.

    Attributes:
        t: Slot index.
        cycles: ``f_t`` -- task sizes in CPU cycles, shape ``(I,)``.
        bits: ``d_t`` -- input data lengths in bits, shape ``(I,)``.
        spectral_efficiency: ``h_t`` -- access-link bps/Hz, shape
            ``(I, K)``; zero entries mean "out of coverage".
        price: ``p_t`` -- electricity price for the slot.
        fronthaul_se: Optional per-slot fronthaul spectral efficiencies
            ``h^F_{k,t}``, shape ``(K,)``.  The paper treats ``h^F`` as
            time-invariant but notes the algorithm handles variation;
            when present this overrides the base stations' static values
            for the slot.
        available_servers: Optional per-slot server availability mask,
            shape ``(N,)``.  ``False`` entries are failed/offline servers:
            no device may select them and they draw no power this slot.
            ``None`` (the paper's setting) means every server is up.
    """

    t: int
    cycles: FloatArray
    bits: FloatArray
    spectral_efficiency: FloatArray
    price: float
    fronthaul_se: FloatArray | None = None
    available_servers: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        cycles = as_float_array(self.cycles, "cycles")
        bits = as_float_array(self.bits, "bits")
        h = as_float_array(self.spectral_efficiency, "spectral_efficiency")
        if cycles.ndim != 1 or cycles.shape != bits.shape:
            raise ValidationError("cycles and bits must be matching 1-D arrays")
        if h.ndim != 2 or h.shape[0] != cycles.size:
            raise ValidationError(
                f"spectral_efficiency must be (I, K) with I={cycles.size}, "
                f"got {h.shape}"
            )
        if np.any(h < 0.0):
            raise ValidationError("spectral efficiencies must be non-negative")
        if self.price < 0.0:
            raise ValidationError("price must be non-negative")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "spectral_efficiency", h)
        if self.fronthaul_se is not None:
            fr = as_float_array(self.fronthaul_se, "fronthaul_se")
            if fr.ndim != 1 or fr.size != h.shape[1]:
                raise ValidationError(
                    f"fronthaul_se must have shape (K,) = ({h.shape[1]},), "
                    f"got {fr.shape}"
                )
            if np.any(fr <= 0.0):
                raise ValidationError("fronthaul_se entries must be positive")
            object.__setattr__(self, "fronthaul_se", fr)
        if self.available_servers is not None:
            avail = np.asarray(self.available_servers, dtype=bool)
            if avail.ndim != 1:
                raise ValidationError("available_servers must be a 1-D mask")
            if not np.any(avail):
                raise ValidationError(
                    "available_servers cannot mark every server as down"
                )
            object.__setattr__(self, "available_servers", avail)

    @classmethod
    def trusted(
        cls,
        *,
        t: int,
        cycles: FloatArray,
        bits: FloatArray,
        spectral_efficiency: FloatArray,
        price: float,
        fronthaul_se: FloatArray | None = None,
        available_servers: "np.ndarray | None" = None,
    ) -> "SlotState":
        """Construct without per-field validation.

        The compiled state pipeline
        (:meth:`repro.sim.scenario.StateGenerator.compile_states`) draws
        whole chunks of slots at once and validates the stacked arrays
        in one pass, so re-running ``__post_init__``'s checks and
        ``as_float_array`` conversions per slot would only repeat work.
        Callers must guarantee what the normal constructor enforces:
        contiguous float64 arrays, ``cycles``/``bits`` matching 1-D,
        ``spectral_efficiency`` a non-negative ``(I, K)`` matrix,
        ``price >= 0``, and -- when given -- a positive ``(K,)``
        ``fronthaul_se`` and a boolean availability mask with at least
        one server up.
        """
        state = object.__new__(cls)
        set_ = object.__setattr__
        set_(state, "t", t)
        set_(state, "cycles", cycles)
        set_(state, "bits", bits)
        set_(state, "spectral_efficiency", spectral_efficiency)
        set_(state, "price", price)
        set_(state, "fronthaul_se", fronthaul_se)
        set_(state, "available_servers", available_servers)
        return state

    @property
    def num_devices(self) -> int:
        """``I``."""
        return int(self.cycles.size)

    @property
    def num_base_stations(self) -> int:
        """``K``."""
        return int(self.spectral_efficiency.shape[1])

    def coverage(self) -> np.ndarray:
        """Boolean ``(I, K)`` mask of usable access links this slot."""
        return self.spectral_efficiency > 0.0


@dataclass(frozen=True)
class Assignment:
    """Joint base-station and server selection ``(x_t, y_t)``.

    Attributes:
        bs_of: ``bs_of[i] = k`` -- the base station chosen by device ``i``.
        server_of: ``server_of[i] = n`` -- the chosen edge server.
    """

    bs_of: IntArray
    server_of: IntArray

    def __post_init__(self) -> None:
        bs_of = as_int_array(self.bs_of, "bs_of")
        server_of = as_int_array(self.server_of, "server_of")
        if bs_of.ndim != 1 or bs_of.shape != server_of.shape:
            raise ValidationError("bs_of and server_of must be matching 1-D arrays")
        object.__setattr__(self, "bs_of", bs_of)
        object.__setattr__(self, "server_of", server_of)

    @classmethod
    def trusted(cls, bs_of: IntArray, server_of: IntArray) -> "Assignment":
        """Construct without validation, for a kernel's own result.

        Callers must guarantee what the normal constructor enforces:
        matching 1-D contiguous int64 vectors.
        """
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "bs_of", bs_of)
        object.__setattr__(assignment, "server_of", server_of)
        return assignment

    @property
    def num_devices(self) -> int:
        """``I``."""
        return int(self.bs_of.size)

    def x_matrix(self, num_base_stations: int) -> np.ndarray:
        """One-hot ``(I, K)`` base-station selection matrix ``x_t``."""
        x = np.zeros((self.num_devices, num_base_stations))
        x[np.arange(self.num_devices), self.bs_of] = 1.0
        return x

    def y_matrix(self, num_servers: int) -> np.ndarray:
        """One-hot ``(I, N)`` server selection matrix ``y_t``."""
        y = np.zeros((self.num_devices, num_servers))
        y[np.arange(self.num_devices), self.server_of] = 1.0
        return y

    def devices_on_bs(self, k: int) -> IntArray:
        """``I_k(x_t)`` -- devices that selected base station *k*."""
        return np.flatnonzero(self.bs_of == k)

    def devices_on_server(self, n: int) -> IntArray:
        """``I_n(y_t)`` -- devices that selected server *n*."""
        return np.flatnonzero(self.server_of == n)

    def replace(self, device: int, bs: int, server: int) -> "Assignment":
        """Copy with *device* reassigned to (bs, server)."""
        bs_of = self.bs_of.copy()
        server_of = self.server_of.copy()
        bs_of[device] = bs
        server_of[device] = server
        return Assignment(bs_of=bs_of, server_of=server_of)


@dataclass(frozen=True)
class ResourceAllocation:
    """Bandwidth and compute shares ``(Psi_t, Phi_t)``.

    Because each device uses exactly one base station and one server, the
    shares are stored per device: ``compute_share[i]`` is the fraction
    ``phi`` of its chosen server, ``access_share[i]``/``fronthaul_share[i]``
    the fractions ``psi^A``/``psi^F`` of its chosen base station.
    """

    access_share: FloatArray
    fronthaul_share: FloatArray
    compute_share: FloatArray

    def __post_init__(self) -> None:
        access = as_float_array(self.access_share, "access_share")
        front = as_float_array(self.fronthaul_share, "fronthaul_share")
        compute = as_float_array(self.compute_share, "compute_share")
        if not (access.shape == front.shape == compute.shape) or access.ndim != 1:
            raise ValidationError("all share vectors must be matching 1-D arrays")
        for name, arr in (
            ("access_share", access),
            ("fronthaul_share", front),
            ("compute_share", compute),
        ):
            if (arr < 0.0).any() or (arr > 1.0 + 1e-9).any():
                raise ValidationError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "access_share", access)
        object.__setattr__(self, "fronthaul_share", front)
        object.__setattr__(self, "compute_share", compute)

    @classmethod
    def trusted(
        cls,
        *,
        access_share: FloatArray,
        fronthaul_share: FloatArray,
        compute_share: FloatArray,
    ) -> "ResourceAllocation":
        """Construct without validation, for shares a kernel has
        already checked.

        The fused slot kernel computes Lemma 1's shares and flags any
        that is non-finite, negative or above ``1 + 1e-9`` in the same
        pass (:func:`repro.core.bdma.solve_p2_bdma_fused`); unflagged
        shares would pass ``__post_init__`` unchanged.  Callers must
        guarantee what the normal constructor enforces: matching 1-D
        contiguous float64 vectors, finite and within ``[0, 1 + 1e-9]``.
        """
        allocation = object.__new__(cls)
        object.__setattr__(allocation, "access_share", access_share)
        object.__setattr__(allocation, "fronthaul_share", fronthaul_share)
        object.__setattr__(allocation, "compute_share", compute_share)
        return allocation

    @property
    def num_devices(self) -> int:
        """``I``."""
        return int(self.access_share.size)


@dataclass(frozen=True)
class Decision:
    """The full per-slot decision ``alpha_t``."""

    assignment: Assignment
    allocation: ResourceAllocation
    frequencies: FloatArray

    def __post_init__(self) -> None:
        freqs = as_float_array(self.frequencies, "frequencies")
        if freqs.ndim != 1:
            raise ValidationError("frequencies must be a 1-D array")
        if self.allocation.num_devices != self.assignment.num_devices:
            raise ValidationError("allocation and assignment sizes differ")
        object.__setattr__(self, "frequencies", freqs)


def validate_decision(
    network: MECNetwork,
    state: SlotState,
    decision: Decision,
    *,
    atol: float = 1e-9,
    quarantined: "np.ndarray | Sequence[int] | None" = None,
) -> None:
    """Check a decision against constraints (1)-(6) and frequency bounds.

    Args:
        network: Static topology.
        state: The slot's observed state.
        decision: The decision to check.
        atol: Numerical tolerance on share sums and frequency bounds.
        quarantined: Optional device indices excluded from the
            per-device checks and from the capacity sums.  Degraded-mode
            control (:mod:`repro.core.resilience`) quarantines devices
            whose strategy set is genuinely empty; their placeholder
            assignment entries carry zero demand and zero shares, so
            they cannot affect any other device's constraints.

    Raises:
        ValidationError: Describing the first violated constraint.
    """
    assignment = decision.assignment
    allocation = decision.allocation
    num_devices = network.num_devices
    if assignment.num_devices != num_devices or state.num_devices != num_devices:
        raise ValidationError("device-count mismatch between network/state/decision")
    active = np.ones(num_devices, dtype=bool)
    if quarantined is not None:
        idx = np.asarray(quarantined, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= num_devices):
            raise ValidationError("quarantined device index out of range")
        active[idx] = False

    # Per-device checks, vectorized.  The masks reproduce the original
    # per-device loop's report exactly: the lowest-indexed device with
    # any violation wins, and at that device the checks apply in the
    # loop's order (bs range, server range, coverage, availability,
    # reachability).  Out-of-range selections are clamped to 0 for the
    # later gathers; the clamp cannot misreport, because any clamped
    # device already fails its range check, which is tested first.
    bs_of = assignment.bs_of
    server_of = assignment.server_of
    num_bs = network.num_base_stations
    num_servers = network.num_servers
    bad_bs = (bs_of < 0) | (bs_of >= num_bs)
    bad_server = (server_of < 0) | (server_of >= num_servers)
    k_safe = np.where(bad_bs, 0, bs_of)
    n_safe = np.where(bad_server, 0, server_of)
    devices = np.arange(num_devices)
    uncovered = state.spectral_efficiency[devices, k_safe] <= 0.0
    if state.available_servers is None:
        offline = np.zeros(num_devices, dtype=bool)
    else:
        offline = ~state.available_servers[n_safe]
    reachable = np.zeros((num_bs, num_servers), dtype=bool)
    for k in range(num_bs):
        reachable[k, network.servers_reachable_from(k)] = True
    unreachable = ~reachable[k_safe, n_safe]
    violated = (bad_bs | bad_server | uncovered | offline | unreachable) & active
    if violated.any():
        i = int(np.argmax(violated))
        k = int(bs_of[i])
        n = int(server_of[i])
        if bad_bs[i]:
            raise ValidationError(f"device {i}: base station {k} out of range")
        if bad_server[i]:
            raise ValidationError(f"device {i}: server {n} out of range")
        if uncovered[i]:
            raise ValidationError(
                f"device {i}: selected base station {k} does not cover it"
            )
        if offline[i]:
            raise ValidationError(
                f"device {i}: selected server {n} is offline this slot"
            )
        raise ValidationError(
            f"device {i}: server {n} unreachable through base station {k} "
            "(constraint (3))"
        )

    # Capacity constraints (4)-(6): shares on each resource sum to <= 1.
    # One bincount per resource kind replaces the per-resource member
    # scans; the first offending resource in the original loop order
    # (base stations ascending with access before fronthaul, then
    # servers) is reported.
    access_sums = np.bincount(
        bs_of[active], weights=allocation.access_share[active], minlength=num_bs
    )
    fronthaul_sums = np.bincount(
        bs_of[active], weights=allocation.fronthaul_share[active], minlength=num_bs
    )
    limit = 1.0 + atol
    bs_over = (access_sums > limit) | (fronthaul_sums > limit)
    if bs_over.any():
        k = int(np.argmax(bs_over))
        if access_sums[k] > limit:
            raise ValidationError(f"base station {k}: access shares exceed 1")
        raise ValidationError(f"base station {k}: fronthaul shares exceed 1")
    compute_sums = np.bincount(
        server_of[active], weights=allocation.compute_share[active], minlength=num_servers
    )
    if np.any(compute_sums > limit):
        n = int(np.argmax(compute_sums > limit))
        raise ValidationError(f"server {n}: compute shares exceed 1")

    freqs = decision.frequencies
    if freqs.size != network.num_servers:
        raise ValidationError("one frequency per server is required")
    if np.any(freqs < network.freq_min - atol) or np.any(
        freqs > network.freq_max + atol
    ):
        raise ValidationError("a frequency lies outside [F^L, F^U]")
