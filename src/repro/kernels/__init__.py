"""Array-kernel backends for the slot pipeline's hot loops.

``backend="numpy"`` is the reference implementation (and bit-exactness
oracle); ``backend="jit"`` resolves to ctypes-loaded C kernels compiled
at first use, or to the NumPy kernels again (with a warning) when no C
compiler is available.  Every backend is bit-identical to the oracle by
contract -- selecting ``jit`` changes wall-clock, never results.

Select a backend with ``api.run(engine_backend="jit")``, the CLI's
``--backend jit``, or by passing ``kernels=get_kernels("jit")`` to
:class:`~repro.core.congestion_game.OffloadingCongestionGame` directly.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from repro.exceptions import ConfigurationError
from repro.kernels.interface import DecomposedState, KernelBackend
from repro.kernels.numpy_backend import make_numpy_backend
from repro.kernels.shm import SharedStateBlock

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "DecomposedState",
    "KernelBackend",
    "SharedStateBlock",
    "available_backends",
    "get_kernels",
    "jit_provider",
]

DEFAULT_BACKEND = "numpy"
BACKEND_NAMES = ("numpy", "jit")

_cache: dict[str, KernelBackend] = {}


def jit_provider() -> str | None:
    """Which provider ``backend="jit"`` would use, without building it.

    ``"cc"`` when a C compiler is on PATH, else ``None`` (jit falls back
    to NumPy).
    """
    from repro.kernels import native

    if native.find_compiler() is not None:
        return "cc"
    return None


def available_backends() -> dict[str, bool]:
    """Availability map surfaced in run manifests and skip marks.

    ``jit`` is reported available when the C provider could back it;
    the NumPy fallback does not count (it would be a silent no-op).
    """
    return {"numpy": True, "jit": jit_provider() is not None}


def _resolve_jit() -> KernelBackend:
    from repro.kernels import native

    try:
        return native.make_cc_backend()
    except native.KernelBuildError as exc:
        warnings.warn(
            f"backend 'jit' unavailable ({exc}); falling back to NumPy kernels",
            RuntimeWarning,
            stacklevel=3,
        )
        return replace(get_kernels("numpy"), name="jit")


def get_kernels(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve *backend* to a :class:`KernelBackend` (cached per process).

    Args:
        backend: ``"numpy"``, ``"jit"``, an already-resolved backend
            (returned as is), or ``None`` for the default.

    Raises:
        ConfigurationError: On an unknown backend name.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, KernelBackend):
        return backend
    if backend not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown kernel backend {backend!r}; expected one of {BACKEND_NAMES}"
        )
    if backend not in _cache:
        if backend == "numpy":
            _cache[backend] = make_numpy_backend()
        else:
            _cache[backend] = _resolve_jit()
    return _cache[backend]
