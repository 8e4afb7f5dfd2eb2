"""Source checks on the package's own modules."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import covrage

MODULES = sorted(Path(covrage.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # A name left behind by a refactor, such as a helper whose last call moved
    # to another module, shows up here before it misleads a reader.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_use_einsum(path):
    assert "einsum" not in path.read_text(encoding="utf-8"), (
        "numpy's einsum searches for a contraction path on every call, about 40 us, and every sweep"
        " of a comparison would repeat it; write the contraction as matrix products"
    )


ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def _identifiers(node: ast.AST) -> Counter:
    """How often each name or attribute appears in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.split(r"^## ", readme.split("\n## Library\n", 1)[1], flags=re.M)[0]


def test_every_public_name_has_a_user_outside_the_tests():
    # A helper only the tests call belongs in the tests. A public name counts as
    # used when src/ reads it outside its own definition, or when the benchmark,
    # the acceptance gate or README's Library section names it.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    in_src = sum((_identifiers(tree) for tree in trees.values()), Counter())
    outside = "\n".join(
        [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"), _library_section()]
    )
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name, node in _public_definitions(tree)
        if in_src[name] == _identifiers(node)[name] and not re.search(rf"\b{name}\b", outside)
    ]
    assert unused == []


def test_cli_leaves_number_text_to_csvtext():
    # csvtext renders every number covrage prints or writes, by one rule; cli
    # only picks which number goes on which line. Compare's fixed-width table
    # on stdout is the one place cli formats a number itself.
    tree = ast.parse((Path(covrage.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not re.search(r"%[-+ #0]*\d*(\.\d+)?[eEfFgG]|\.10g", node.value), node.value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "format"
    specs = {
        (fn.name, "".join(v.value for v in node.format_spec.values))
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    floats = sorted((name, spec) for name, spec in specs if spec[-1:] in tuple("eEfFgGn%"))
    assert floats == [("cmd_compare", ">10.1f"), ("cmd_compare", ">10.3f")]


def test_planner_leaves_plane_wave_arithmetic_to_the_array_model():
    # The planner decides (centres, overlaps, groups, shifts); array_model owns
    # the plane-wave convention, the groups' origin phasors among it.
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    for token in ("math.cos", "math.sin", "math.pi", "np.exp", "np.cos", "np.sin", ".origin("):
        assert token not in sources["planner.py"], token
    assert [name for name, text in sources.items() if ".origin(" in text] == ["array_model.py"]
