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
    # mentioned in the package past its definition and re-export, in perfbench
    # or in the README: public API that only the tests call should go.
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in sorted(Path(sl2tilings.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    sources += [*sorted((root / "perfbench").glob("*.py")), root / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = []
    for name in sl2tilings.__all__:
        definition = rf"\b(?:def|class)\s+{name}\b|^{name}\s*[:=]"
        if not re.search(rf"\b{name}\b", re.sub(definition, "", text, flags=re.MULTILINE)):
            unused.append(name)
        obj = getattr(sl2tilings, name)
        if isinstance(obj, type):
            unused += [
                f"{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and isinstance(member, (FunctionType, staticmethod, classmethod, property))
                and not re.search(rf"\.{attr}\b", text)
            ]
    assert unused == []
