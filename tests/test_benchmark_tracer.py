"""The benchmark's tracer still finds every function it times.

``perfbench/tracer.py`` wraps seedcast's functions by name at every place
they are bound and raises ``CoverageError`` when one is gone or still
reachable unwrapped. Installing it here makes a rename or an inlined traced
function fail the test suite, not only the benchmark's own checks.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import importlib, pkgutil, sys
sys.path[:0] = [{src!r}, {bench!r}]
import seedcast
for info in pkgutil.iter_modules(seedcast.__path__):
    importlib.import_module("seedcast." + info.name)
from tracer import Tracer
Tracer().install(seedcast)
print("installed")
"""


def test_tracer_covers_every_seedcast_module():
    code = INSTALL.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
