"""Lazy package exports (PEP 562 module ``__getattr__`` and ``__dir__``).

Every package ``__init__`` of :mod:`repro` publishes its names through
:func:`lazy_exports`, a table from each submodule to the public names
it defines.  Importing a package imports none of its submodules; the
first read of a name imports the submodule that defines it and caches
the value in the package's globals, so every later read is a plain
attribute lookup.  A cell run therefore loads only the modules it
uses, not the service, QoS, scheduling or analysis layers.
"""

from importlib import import_module
from typing import Callable, Dict, List, MutableMapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: MutableMapping[str, object],
    table: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``, whose globals
    are ``namespace``; ``table`` maps a submodule name, relative to the
    package (``"experiment"``, ``"core.store"``), to the names it
    defines."""
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
