"""Lazy package exports (PEP 562): each public name declared once.

A package ``__init__`` hands :func:`lazy_exports` one table mapping
each defining module (relative to the package) to the names it
exports, and binds what comes back::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".probe": ("Probe", "Tracer"),
        ".server": ("MetricsServer",),
    })

Nothing is imported until a name is first read; ``from pkg import *``
reads them all.  A name equal to its module's own name (``".api":
("api",)``) binds the submodule itself.  Any other attribute that names
a submodule of a package (``repro.core``) imports it, as an eager
package would have.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package* from *table*."""
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            if "__path__" in namespace:  # a package: try a submodule
                try:
                    return importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError as exc:
                    if exc.name != f"{package}.{name}":
                        raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module != f".{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__
