"""Array-kernel backends for the slot pipeline's hot loops.

``backend="numpy"`` is the reference implementation (and bit-exactness
oracle); ``backend="jit"`` is C kernels compiled at first use and bound
through ctypes.  Every backend is bit-identical to the oracle by
contract -- the backend changes wall-clock, never results.

An unset backend means the C kernels when they build and load, else the
NumPy kernels.  :func:`get_kernels` decides lazily, once per process
(importing the package builds nothing).  When the C kernels cannot build
-- no compiler, an unusable kernel cache -- ``"jit"`` and an unset
backend both return the NumPy backend itself, named ``"numpy"``, after
one :class:`RuntimeWarning` giving the reason.  Pin the oracle with
``api.run(engine_backend="numpy")`` or the CLI's ``--backend numpy``.
"""

from __future__ import annotations

import warnings

from repro._exports import lazy_exports
from repro.exceptions import ConfigurationError
from repro.kernels.interface import KernelBackend
from repro.kernels.numpy_backend import make_numpy_backend

_exports, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".interface": ("DecomposedState", "KernelBackend"),
        ".shm": ("SharedStateBlock",),
    },
)
__all__ = [
    "BACKEND_NAMES",
    "available_backends",
    "get_kernels",
    "jit_provider",
    *_exports,
]

BACKEND_NAMES = ("numpy", "jit")

#: What an unset backend asks for first.
_DEFAULT = "jit"

_cache: dict[str, KernelBackend] = {}


def jit_provider() -> str | None:
    """The provider behind ``backend="jit"``: ``"cc"`` when the C
    kernels built and loaded, else ``None`` (jit fell back to NumPy).

    Resolves ``get_kernels("jit")`` on first use, which builds the C
    kernels (or warns once and falls back).
    """
    backend = get_kernels("jit")
    return None if backend.name == "numpy" else backend.provider


def available_backends() -> dict[str, bool]:
    """Availability map surfaced in run manifests and skip marks.

    ``jit`` is reported available only when ``get_kernels("jit")``
    resolved to the C kernels; the NumPy fallback does not count (it
    would be a silent no-op).
    """
    return {"numpy": True, "jit": jit_provider() is not None}


def _resolve_jit() -> KernelBackend:
    from repro.kernels import native

    try:
        return native.make_cc_backend()
    except native.KernelBuildError as exc:
        warnings.warn(
            f"C kernels unavailable ({exc}); running the NumPy kernels",
            RuntimeWarning,
            stacklevel=3,
        )
        return get_kernels("numpy")


def get_kernels(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve *backend* to a :class:`KernelBackend` (cached per process).

    Args:
        backend: ``"numpy"``, ``"jit"``, an already-resolved backend
            (returned as is), or ``None`` for the C kernels when they
            build and the NumPy kernels otherwise.

    Raises:
        ConfigurationError: On an unknown backend name.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = _DEFAULT
    if backend not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown kernel backend {backend!r}; engine_backend must be "
            f"one of {BACKEND_NAMES} or None"
        )
    if backend not in _cache:
        if backend == "numpy":
            _cache[backend] = make_numpy_backend()
        else:
            _cache[backend] = _resolve_jit()
    return _cache[backend]
