"""Lazy package exports (PEP 562) for every ``repro`` package ``__init__``.

A package lists its exports once, grouped by the submodule that defines
them, and :func:`lazy_exports` turns that into one map from name to
submodule plus the module-level ``__getattr__`` and ``__dir__`` that
serve it.  Importing a package then loads none of its submodules: a
name's submodule is imported on its first attribute access (``from
repro.x import Name`` included), and the value is cached in the package
namespace, so later lookups are plain attribute reads and return the
same object the submodule defines.  An unknown name raises
``AttributeError``.

Fork rule: a sweep fans its cluster replays out over forked workers
(:func:`repro.experiments.parallel.run_cluster_tasks`), and a module
first imported inside a replay task is imported again in every worker,
on every sweep.  So lazy loading must not move an import past the fork:
a module that builds replay tasks imports, at module level, what those
tasks would otherwise load on their own (see
:mod:`repro.chaos.experiment`).  Library code imports from submodules,
never through a package's export map, so the map alone moves nothing.
The workers themselves import only the plan builder and the evaluator
(:mod:`repro.serving.columnar`, :mod:`repro.simulation.vectorized`).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, groups: Mapping[str, tuple[str, ...]]
) -> tuple[dict[str, str], Callable[[str], object], Callable[[], list[str]]]:
    """The export map and the ``__getattr__``/``__dir__`` of ``package``.

    ``groups`` maps a submodule to the names it defines; a submodule is
    named relative to ``package`` (``"runner"``) or absolutely
    (``"repro.tracing.aggregate"``, for a name another package defines).
    A name equal to its submodule's last component exports the submodule
    itself.  Returns ``(exports, __getattr__, __dir__)``, where
    ``exports`` maps every exported name, in ``groups`` order, to the
    absolute name of its submodule; the package sets ``__all__`` to its
    keys.
    """
    exports: dict[str, str] = {}
    for module, names in groups.items():
        origin = module if module.startswith("repro.") else f"{package}.{module}"
        for name in names:
            if name in exports:
                raise ValueError(f"{package}: {name!r} is exported twice")
            exports[name] = origin
    namespace = vars(sys.modules[package])

    def module_getattr(name: str) -> object:
        origin = exports.get(name)
        if origin is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(origin)
        value = module if origin.rpartition(".")[2] == name else getattr(module, name)
        namespace[name] = value
        return value

    def module_dir() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return exports, module_getattr, module_dir
