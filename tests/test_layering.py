"""Import layering: the paper-level packages never reach into the runtime.

``repro.core``, ``repro.regression``, ``repro.analysis`` and
``repro.baselines`` implement the mechanism, the estimators and the
baselines with plain numpy; ``repro.runtime`` (planning, stacked kernels,
executors) is built on top of them.  An import in the other direction —
even a deferred one inside a function body — would make the per-cell
reference path depend on the batched runtime it is the oracle for.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
LOWER_LAYERS = ("core", "regression", "analysis", "baselines")
FORBIDDEN = "repro.runtime"


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


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_does_not_import_runtime(layer):
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line} imports {module}"
        for path in sorted((SRC / layer).rglob("*.py"))
        for line, module in _imported_modules(path)
        if module == FORBIDDEN or module.startswith(FORBIDDEN + ".")
    ]
    assert offenders == []
