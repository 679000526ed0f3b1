"""The Python shell around the fused slot call.

A slot the fused kernel decides builds its :class:`Assignment` and
:class:`ResourceAllocation` through the trusted constructors: the
kernel checks every share's range and finiteness as it computes them
(``repro_shares_invalid``), and only a flagged slot takes the
validating constructor, so a bad share raises exactly what
``optimal_allocation``'s result would.  These tests pin that check
against the validating constructor, the dispatch on its flag, and that
an untraced fused run validates nothing in Python while the Python loop
still does.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

import repro
from repro.core.allocation import optimal_allocation
from repro.core.bdma import BDMAResult, FusedSlot
from repro.core.state import Assignment, ResourceAllocation, SlotState
from repro.exceptions import ValidationError
from repro.kernels import available_backends

from conftest import make_tiny_network, make_tiny_state

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (needs a C compiler)",
)


def raised(build) -> "tuple[str, str] | None":
    """The type name and message *build* raises, or ``None``."""
    try:
        build()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def validating(shares: np.ndarray):
    """What ``optimal_allocation`` does with Lemma 1's shares."""
    return lambda: ResourceAllocation(
        access_share=shares[1], fronthaul_share=shares[2], compute_share=shares[0]
    )


#: Share vectors around every edge of the validating constructor.
SHARE_CASES = {
    "in range": [0.0, 0.25, 1.0],
    "negative zero": [-0.0, 0.5, 0.5],
    "tolerance edge": [0.0, 1.0 + 1e-9, 0.5],
    "above tolerance": [0.0, 1.0 + 2e-9, 0.5],
    "negative": [0.5, -1e-300, 0.5],
    "nan": [0.5, np.nan, 0.5],
    "inf": [np.inf, 0.5, 0.5],
    "minus inf": [0.5, 0.5, -np.inf],
}


@requires_jit
@pytest.mark.parametrize("case", sorted(SHARE_CASES))
def test_kernel_share_check_matches_the_validating_constructor(case) -> None:
    """``repro_shares_invalid`` flags a share vector exactly when the
    validating constructor refuses it, in whichever row it sits."""
    from repro.kernels import native

    check = ctypes.CDLL(str(native._build_library())).repro_shares_invalid
    check.restype = ctypes.c_longlong
    check.argtypes = [ctypes.c_void_p, ctypes.c_longlong]
    values = np.array(SHARE_CASES[case])
    for row in range(3):
        shares = np.full((3, values.size), 0.5)
        shares[row] = values
        flagged = bool(check(shares.ctypes.data, shares.size))
        assert flagged == (raised(validating(shares)) is not None), (case, row)


def fused_slot(shares, *, uncovered=-1, invalid=False) -> FusedSlot:
    """A slot on the tiny network with device 0 on base station 1,
    which does not cover it, and the given kernel outputs."""
    network = make_tiny_network()
    assignment = Assignment(
        bs_of=np.array([1, 0, 1, 1]), server_of=np.array([2, 1, 2, 2])
    )
    result = BDMAResult(
        assignment=assignment, frequencies=network.freq_max.copy(), objective=0.0
    )
    return FusedSlot(result, np.asarray(shares, dtype=float), uncovered, invalid,
                     None)


class TestFlaggedShares:
    """A flagged slot raises what the validating constructor raises on
    the same shares: the error ``optimal_allocation`` would give."""

    @pytest.mark.parametrize(
        "bad", [(1, 2, np.nan), (0, 0, np.inf), (2, 1, 1.5), (0, 3, -0.25)]
    )
    def test_flagged_share_raises_the_validating_error(self, bad) -> None:
        row, device, value = bad
        shares = np.full((3, 4), 0.25)
        shares[row, device] = value
        want = raised(validating(shares))
        assert want is not None
        assert raised(fused_slot(shares, invalid=True).allocation) == want

    def test_unflagged_slot_skips_validation(self, monkeypatch) -> None:
        calls = []
        monkeypatch.setattr(
            ResourceAllocation, "__post_init__", lambda self: calls.append(1)
        )
        shares = np.full((3, 4), 0.25)
        allocation = fused_slot(shares).allocation()
        assert calls == []
        assert np.array_equal(allocation.access_share, shares[1])
        assert np.array_equal(allocation.fronthaul_share, shares[2])
        assert np.array_equal(allocation.compute_share, shares[0])

    def test_uncovered_device_error_is_unchanged(self) -> None:
        network, state = make_tiny_network(), make_tiny_state()
        slot = fused_slot(np.zeros((3, 4)), uncovered=0)
        assignment = slot.result.assignment
        want = raised(lambda: optimal_allocation(network, state, assignment))
        assert want is not None and want[0] == "ValidationError"
        got = raised(slot.allocation)
        assert got == want
        with pytest.raises(ValidationError):
            slot.allocation()


def non_finite_slots(kind: str):
    """The tiny network and three states on which device 1's Lemma-1
    compute weight is not finite."""
    network = make_tiny_network()
    base = make_tiny_state()
    cycles = base.cycles.copy()
    if kind == "zero suitability":
        network.suitability[1, :] = 0.0
    else:
        cycles[1] = np.inf
    states = [
        SlotState.trusted(
            t=t,
            cycles=cycles,
            bits=base.bits,
            spectral_efficiency=base.spectral_efficiency,
            price=base.price,
        )
        for t in range(3)
    ]
    return network, states


@requires_jit
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("kind", ["infinite cycles", "zero suitability"])
def test_non_finite_slot_fails_alike_on_both_paths(kind) -> None:
    """Fault injection: a device whose Lemma-1 weight is not finite.

    The group total that would make its share non-finite is the same
    sum that enters ``T_t``, so no round scores a finite objective and
    neither path reaches the allocation: the fused call and the Python
    loop raise the same error, type and message."""
    from test_fused_slot import python_loop

    outcomes = []
    for loop in (False, True):
        network, states = non_finite_slots(kind)
        controller = repro.DPPController(
            network, np.random.default_rng(3), v=50.0, budget=20.0, z=2,
            engine_backend="jit",
        )
        if loop:
            python_loop(controller)
        outcomes.append(raised(lambda: [controller.step(s) for s in states]))
    assert outcomes[0] is not None
    assert outcomes[0] == outcomes[1]


@pytest.fixture
def post_init_calls(monkeypatch):
    """Count ``__post_init__`` runs of the two decision types."""
    counts = {"Assignment": 0, "ResourceAllocation": 0}
    for cls in (Assignment, ResourceAllocation):
        original = cls.__post_init__

        def counted(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def run_twenty_slots(backend: str) -> list:
    scenario = repro.make_paper_scenario(
        seed=11, config=repro.ScenarioConfig(num_devices=20)
    )
    controller = repro.DPPController(
        scenario.network, scenario.controller_rng("shell"), v=100.0,
        budget=scenario.budget, z=3, engine_backend=backend,
    )
    return [controller.step(s) for s in scenario.fresh_compiled_states(20)]


@requires_jit
def test_untraced_fused_run_validates_nothing_in_python(post_init_calls) -> None:
    records = run_twenty_slots("jit")
    assert len(records) == 20
    assert post_init_calls == {"Assignment": 0, "ResourceAllocation": 0}
    # The trusted objects are what the validating constructors would
    # have built: contiguous vectors of the right dtypes.
    record = records[-1]
    assert record.assignment.bs_of.dtype == np.int64
    assert record.assignment.server_of.flags.c_contiguous
    for name in ("access_share", "fronthaul_share", "compute_share"):
        share = getattr(record.allocation, name)
        assert share.dtype == np.float64 and share.flags.c_contiguous


def test_python_loop_still_validates(post_init_calls) -> None:
    run_twenty_slots("numpy")
    assert post_init_calls["Assignment"] >= 20
    assert post_init_calls["ResourceAllocation"] == 20


def test_trusted_constructors_keep_their_arrays() -> None:
    bs_of, server_of = np.array([0, 1]), np.array([2, 3])
    assignment = Assignment.trusted(bs_of, server_of)
    assert assignment.bs_of is bs_of and assignment.server_of is server_of
    shares = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    allocation = ResourceAllocation.trusted(
        access_share=shares[1], fronthaul_share=shares[2], compute_share=shares[0]
    )
    assert allocation.num_devices == 2
    assert np.shares_memory(allocation.compute_share, shares)
