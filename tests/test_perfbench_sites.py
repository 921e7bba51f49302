"""The benchmark's tracer wraps package attributes by name; each must exist.

``perfbench/tracing.py`` rebinds the (module, attribute) pairs in its
``SITES`` table, so deleting or renaming one of them in the package breaks
a traced benchmark pass.  This checks the table against the package
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr)
               for sites in tracing.SITES.values() for module, attr in sites
               if not callable(getattr(
                   importlib.import_module(f"kghulthen.{module}"), attr,
                   None))]
    assert tracing.SITES
    assert missing == []
