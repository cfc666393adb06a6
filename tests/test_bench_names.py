"""The module attributes the traced benchmark wraps must exist.

bench/layers.py installs its wrappers by name through getattr, so a
library name it wraps that is renamed or removed breaks the traced run.
"""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


class NameCheckingTracer:
    """Stands in for bench/tracer.py: records each wrapped name and looks
    it up instead of wrapping it."""

    def __init__(self):
        self.names = []

    def span(self, module, attr, *_):
        self.names.append(f"{module.__name__}.{attr}")
        getattr(module, attr)

    count = span


def test_every_wrapped_name_exists():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = NameCheckingTracer()
    layers.instrument(tracer)
    assert tracer.names
    assert "latticeobs.verifier.walk_dimension" in tracer.names
