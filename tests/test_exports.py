import importlib

import cfmw_kit


def test_every_exported_name_exists():
    # A name deleted from a module but left in its __all__ breaks
    # ``from cfmw_kit.<module> import *`` only when someone tries it.
    missing = []
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        missing += [f"{module}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []
