from types import ModuleType

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
