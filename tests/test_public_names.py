"""Every public top-level function and class of `clonebound` has a user outside `tests/`.

A user is a name, an attribute or an import alias in code: the package
itself (outside the definition's own body), the demos, the benchmark
and the README's python blocks.  Docstrings and comments do not count.
A name only the tests call is test code and belongs in `tests/`.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "clonebound"


def _names(tree):
    """Every identifier `tree` uses: names, attributes and imported names with their aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions_and_users():
    """({name: module} of public top-level defs, {name: users}) over the package and its users."""
    defined, users = {}, {}

    def use(names, where):
        for name in names:
            users.setdefault(name, set()).add(where)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[owner] = path.stem
            # a definition's own body does not use it
            use((n for n in _names(node) if n != owner), path.stem)
    for folder in ("demos", "perfbench"):
        for path in sorted((REPO / folder).glob("*.py")):
            use(_names(_parse(path)), f"{folder}/{path.name}")
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for body in re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S):
        use(_names(ast.parse(body)), "README.md")
    return defined, users


def test_the_scan_sees_every_source():
    defined, users = definitions_and_users()
    assert {"output_state", "ClonerParams", "check_point", "main"} <= defined.keys()
    assert "README.md" in users["ClonerParams"]
    assert any(where.startswith("demos/") for where in users["bh_clone"])
    assert any(where.startswith("perfbench/") for where in users["random_rotation"])


def test_every_public_definition_has_a_user_outside_the_tests():
    defined, users = definitions_and_users()
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in users)
    assert unused == [], f"only the tests use {unused}: move them to tests/reference.py"
