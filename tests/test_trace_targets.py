"""The benchmark's trace targets (perfbench/tracing.py) exist in the package.

The benchmark wraps these functions by module and attribute name; a refactor
that renames or un-imports one should fail here, not in every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _, _ in tracing.TARGETS:
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            # a method is looked up in the class itself, as the tracer wraps it there
            func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        if not callable(func):
            missing.append(f"{module_name}.{path} (not callable)")
    assert not missing, "trace targets not found: " + ", ".join(missing)
