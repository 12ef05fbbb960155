"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imports everything it re-exports makes every
``import package.submodule`` pay for all of it.  :func:`lazy_exports`
gives the package the same public names -- ``from package import name``,
``package.name``, ``dir(package)`` -- and imports the module that defines
a name when the name is first asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module that defines it.  A
    resolved name is stored in the package's namespace, so ``__getattr__``
    runs once per name.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
