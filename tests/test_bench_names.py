"""The module attributes the traced benchmark wraps must exist, and no
library module imports a name it neither uses nor exposes to the
benchmark.

bench/layers.py installs its wrappers by name through getattr, so a
library name it wraps that is renamed or removed breaks the traced run.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
PACKAGE = ROOT / "src" / "latticeobs"


class NameCheckingTracer:
    """Stands in for bench/tracer.py: records each wrapped name and looks
    it up instead of wrapping it."""

    def __init__(self):
        self.names = []

    def span(self, module, attr, *_):
        self.names.append(f"{module.__name__}.{attr}")
        getattr(module, attr)

    count = span


def wrapped_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = NameCheckingTracer()
    layers.instrument(tracer)
    return tracer.names


def test_every_wrapped_name_exists():
    names = wrapped_names()
    assert names
    assert "latticeobs.verifier.walk_dimension" in names


def unused_imports(path: pathlib.Path) -> set[str]:
    """Names the module binds by import but never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_dead_imports():
    """Every imported name is used, or is one the benchmark wraps on that
    module; the second kind are listed here so each is deliberate."""
    wrapped = set(wrapped_names())
    bench_only = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in unused_imports(path):
            qualified = f"latticeobs.{path.stem}.{name}"
            assert qualified in wrapped, f"{qualified} is imported but unused"
            bench_only.add(qualified)
    assert bench_only == {
        "latticeobs.colorer.unrank",
        "latticeobs.decoder.walk_nodes",
        "latticeobs.verifier.apply_step",
        "latticeobs.verifier.assign_color",
    }
