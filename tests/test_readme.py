"""README's "Paper → code" map names only code and tests that exist.

Every dotted name in the section must resolve from a seedcast module, every
``tests/…::…`` id to a test class or function in that file, and every
variant to one of ``model.VARIANTS``, so a rename fails the suite instead of
leaving the map stale.
"""

import ast
import importlib
import os
import re

from seedcast.model import VARIANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPONENTS = ("Dependency Evaluator", "Spectral Entropy-based Fuser",
              "Signed Graph Constructor", "Context Spatial Extractor")


def paper_map() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"^## Paper → code\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README has no '## Paper → code' section"
    return match.group(1)


def resolve_name(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"seedcast.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def resolve_test(test_id: str) -> None:
    path, *names = test_id.split("::")
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        scope = ast.parse(fh.read()).body
    for name in names:
        found = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name and name.startswith(("Test", "test_"))]
        assert found, f"{test_id}: no test {name!r}"
        scope = found[0].body


def test_map_names_every_component():
    section = paper_map()
    for component in COMPONENTS:
        assert component in section, component


def test_every_cited_name_and_test_exists():
    spans = re.findall(r"`([^`]+)`", paper_map())
    names = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)]
    tests = [s for s in spans if s.startswith("tests/")]
    variants = [s for s in spans if re.fullmatch(r"(wo|re)_\w+", s)]
    assert names and tests and variants
    for name in names:
        resolve_name(name)  # raises for a renamed or removed name
    for test_id in tests:
        resolve_test(test_id)
    assert set(variants) <= set(VARIANTS), set(variants) - set(VARIANTS)
