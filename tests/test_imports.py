"""Every name a module imports is read somewhere in that module, and every
private module-level name of the package is read somewhere in `src/`."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Imported names of one module that no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # a package's __init__.py imports names only to re-export them
    modules = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    assert [entry for path in modules for entry in unused_imports(path)] == []


def private_definitions(path: Path) -> dict[str, int]:
    """Module-level functions, classes and constants of one module whose
    names start with a single underscore, with their lines."""
    defined = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names if name[:1] == "_" and name[:2] != "__")
    return defined


def test_every_private_name_of_the_package_is_read():
    # a private helper or constant that nothing reads is dead code
    modules = sorted((ROOT / "src").rglob("*.py"))
    read = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for name, line in private_definitions(path).items()
        if name not in read
    ]
    assert unread == []


def owned_nodes(label) -> list[tuple[str, str]]:
    """(label(node), owner) for every node of src/ that label names (returns
    a non-empty string for), the owner being its top-level definition."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.name}:{getattr(top, 'name', top.lineno)}"
            found += [(name, owner) for node in ast.walk(top) if (name := label(node))]
    return found


def test_generated_code_has_one_compile_path():
    # steps and fields are compiled by one helper: the only exec( and
    # compile( calls of the package
    def label(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "compile"):
            return node.func.id

    assert sorted(owned_nodes(label)) == [("compile", "model.py:_compile"), ("exec", "model.py:_compile")]


def test_one_rule_decides_what_a_count_is():
    # "a whole number at or above a floor" is decided by model._count alone:
    # the package's only is_integer call and only comparison against int(x).
    # bifurcate._fmt_number compares too, but decides how a float prints,
    # not what a count may be.
    def label(node):
        if isinstance(node, ast.Attribute) and node.attr == "is_integer":
            return "is_integer"
        if isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Call) and getattr(x.func, "id", None) == "int" for x in (node.left, *node.comparators)
        ):
            return "int comparison"

    found = owned_nodes(label)
    assert sorted(found) == [("int comparison", "bifurcate.py:_fmt_number"), ("is_integer", "model.py:_count")]


def test_one_rule_decides_what_a_real_input_is():
    # "a finite real inside its bound" is decided for every input by
    # model._real alone; the other owners of a math.isfinite check values
    # they compute: SystemParams its derived constants, flow its state and
    # field, _initial_step its probe, xi_second_derivative and reconstruct
    # their results
    def label(node):
        if isinstance(node, ast.Attribute) and node.attr == "isfinite" and getattr(node.value, "id", None) == "math":
            return "math.isfinite"

    assert sorted({owner for _, owner in owned_nodes(label)}) == [
        "bifurcate.py:xi_second_derivative",
        "integrate.py:_initial_step",
        "integrate.py:flow",
        "model.py:SystemParams",
        "model.py:_real",
        "orbits.py:reconstruct",
    ]
