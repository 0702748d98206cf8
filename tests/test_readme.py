"""The README's "What is verified" as a map of the checks: each statement
opens with the checks that make it, each a registry id or a tier-1 test
written module::test, and each registry id opens exactly one statement."""

import ast
import re
from pathlib import Path

from pwomega.registry import REGISTRY

ROOT = Path(__file__).resolve().parent.parent
# a statement's checks: backquoted names separated by commas, then an
# optional parenthesis (the precision) and the colon
HEAD = re.compile(r"((?:`[^`]+`, )*`[^`]+`)(?: \([^)]*\))?:")


def _statements():
    """The section's bullets, each on one line."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## What is verified\n", 1)[1].split("\n## ", 1)[0]
    return section, [" ".join(b.split()) for b in section.split("\n* ")[1:]]


def _is_test(name: str) -> bool:
    module, _, test = name.partition("::")
    path = ROOT / "tests" / f"{module}.py"
    return (test.startswith("test") and path.is_file()
            and any(isinstance(node, ast.FunctionDef) and node.name == test
                    for node in ast.parse(path.read_text()).body))


def test_what_is_verified_names_each_check():
    section, statements = _statements()
    ids = [ident.id for ident in REGISTRY]
    heads = []
    for statement in statements:
        m = HEAD.match(statement)
        assert m, f"names no check: {statement[:60]!r}"
        heads += re.findall(r"`([^`]+)`", m.group(1))
    for name in heads:
        assert name in ids or _is_test(name), f"no registry id or tier-1 test {name!r}"
    named = re.findall(r"`([^`]+)`", section)
    for id in ids:
        assert named.count(id) == 1 and id in heads, (id, named.count(id))
