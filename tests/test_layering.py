"""Import layering: lower layers never reach up into the layers built on them.

``repro.core``, ``repro.regression``, ``repro.analysis`` and
``repro.baselines`` implement the mechanism, the estimators and the
baselines with plain numpy; ``repro.runtime`` (planning, stacked kernels,
executors) is built on top of them.  An import in the other direction —
even a deferred one inside a function body — would make the per-cell
reference path depend on the batched runtime it is the oracle for.

Likewise the protocol bodies in ``experiments/harness.py`` and
``experiments/figures.py`` sit below ``repro.session``, which calls them:
an import of the session layer from there would reopen a second way into
the protocol (and an import cycle).

``repro.serve`` releases each fit by a direct call, so it has no use for
the runtime's executors, fallback chain or retry plumbing: it imports
nothing from ``repro.runtime``.

The runtime's executor is the only parallelism: no module but
``runtime/executor.py`` builds a thread or process pool of its own.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
LOWER_LAYERS = ("core", "regression", "analysis", "baselines")
PROTOCOL_BODIES = ("experiments/harness.py", "experiments/figures.py")


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """Every absolute module name ``path`` imports, with its line number."""
    relative = path.relative_to(SRC.parent).with_suffix("")
    package = list(relative.parts[:-1])  # an __init__ resolves like a sibling
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append((node.lineno, module))
            found.extend((node.lineno, f"{module}.{alias.name}") for alias in node.names)
    return found


def _offenders(paths, forbidden: str) -> list[str]:
    return [
        f"{path.relative_to(SRC.parent)}:{line} imports {module}"
        for path in paths
        for line, module in _imported_modules(path)
        if module == forbidden or module.startswith(forbidden + ".")
    ]


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_does_not_import_runtime(layer):
    assert _offenders(sorted((SRC / layer).rglob("*.py")), "repro.runtime") == []


@pytest.mark.parametrize("module", PROTOCOL_BODIES)
def test_protocol_bodies_do_not_import_session(module):
    assert _offenders([SRC / module], "repro.session") == []


def test_serve_does_not_import_runtime():
    assert _offenders(sorted((SRC / "serve").rglob("*.py")), "repro.runtime") == []


@pytest.mark.parametrize("module", ["asyncio", "concurrent.futures"])
def test_serve_transport_runs_on_plain_threads(module):
    # Each request is served on its connection's own thread, so serve needs
    # no event loop and no handler pool.
    assert _offenders(sorted((SRC / "serve").rglob("*.py")), module) == []


@pytest.mark.parametrize("module", ["concurrent.futures", "multiprocessing"])
def test_only_the_executor_builds_pools(module):
    paths = [p for p in sorted(SRC.rglob("*.py")) if p != SRC / "runtime" / "executor.py"]
    assert _offenders(paths, module) == []
