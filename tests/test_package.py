import ast
import re
from pathlib import Path
from types import FunctionType, ModuleType

import sl2tilings


def test_all_lists_every_public_name():
    submodules = [v for v in vars(sl2tilings).values() if isinstance(v, ModuleType)]
    public = {
        name
        for name, value in vars(sl2tilings).items()
        if not name.startswith("_")
        and not isinstance(value, ModuleType)
        and any(vars(m).get(name) is value for m in submodules)
    }
    assert public - set(sl2tilings.__all__) == set()
    assert set(sl2tilings.__all__) <= public


def test_every_import_is_used():
    # A name a module imports must be read in it or re-exported through __all__.
    unused = []
    for path in sorted(Path(sl2tilings.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_public_api_is_used_outside_tests():
    # Every __all__ name, and every public method of an exported class, must be
    # read as code in the package past its re-export or in perfbench, or be
    # mentioned in the README: public API that only the tests call should go.
    # Strings and comments in the sources do not count.
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in sorted(Path(sl2tilings.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    names, attrs = set(), set()
    for path in [*sources, *sorted((root / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    readme = (root / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in sl2tilings.__all__:
        if name not in names | attrs and not re.search(rf"\b{name}\b", readme):
            unused.append(name)
        obj = getattr(sl2tilings, name)
        if isinstance(obj, type):
            unused += [
                f"{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and isinstance(member, (FunctionType, staticmethod, classmethod, property))
                and attr not in attrs
                and not re.search(rf"\.{attr}\b", readme)
            ]
    assert unused == []
