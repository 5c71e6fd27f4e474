"""``studies/digest.py`` hashes the same bits when run twice in one process.

The digest itself is compared across commits by hand; no golden value is
stored, since one would break across numpy and BLAS builds.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "digest", os.path.join(ROOT, "studies", "digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forecast_section_repeats():
    section = _digest_module().SECTIONS["forecast"]
    first = section()
    assert len(first) == 64
    assert section() == first
