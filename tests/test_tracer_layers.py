"""Every name the benchmark's span tracer wraps still exists.

`perfbench/tracer.py` wraps the functions and methods listed in its
`LAYERS` by name: a module-level function through `getattr`, a method
through its owner class's `__dict__`.  A refactor that renames or deletes
one of them would otherwise fail only inside a traced benchmark run.
The tracer module is executed from its source (no bytecode is written).
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
LAYERS = runpy.run_path(str(TRACER))["LAYERS"]


@pytest.mark.parametrize(
    ("module_name", "owner_name", "attr"),
    [(module, owner, attr) for module, owner, attr, _ in LAYERS],
)
def test_traced_name_exists(module_name, owner_name, attr):
    module = importlib.import_module(f"evolute.{module_name}")
    if owner_name is None:
        assert callable(getattr(module, attr, None))
    else:
        assert attr in vars(getattr(module, owner_name))
