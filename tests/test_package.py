"""The package surface: what ``import starrisk`` offers."""

import importlib
import inspect
import pkgutil

import starrisk


def test_every_public_class_and_function_is_exported():
    # the command-line modules excepted: ``cli`` is the entry point, and
    # importing ``__main__`` runs it
    missing = []
    for info in pkgutil.iter_modules(starrisk.__path__):
        if info.name in ("cli", "__main__"):
            continue
        module = importlib.import_module("starrisk." + info.name)
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__ == module.__name__
                    and getattr(starrisk, name, None) is not obj):
                missing.append(module.__name__ + "." + name)
    assert missing == []
