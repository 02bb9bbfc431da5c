"""Lazy package surfaces: resolve public names on first access (PEP 562).

A package ``__init__`` that imports every submodule makes each entry
point pay for the whole package: ``from repro.fault import report``
would load the simulator, the process pool and the fabric just to
format a table.  Instead each package declares a name table and binds
the module-level ``__getattr__``/``__dir__`` this module builds, so a
name's submodule is imported the first time the name is used and the
value is then cached on the package like an ordinary attribute.

Table values are dotted paths relative to the package:
``"campaign.Campaign"`` is attribute ``Campaign`` of submodule
``campaign``, and a bare ``"report"`` is the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build ``(__getattr__, __dir__)`` for ``package`` over ``exports``."""

    def __getattr__(name: str) -> object:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"{package}.{module_name}")
        value = getattr(module, attr) if attr else module
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
