import importlib
import pkgutil

import pytest

import nearwave


def package_memos() -> dict:
    """Every ``functools.lru_cache`` defined in a nearwave module, by
    "module.name", found by walking the package's modules."""
    memos = {}
    for info in pkgutil.iter_modules(nearwave.__path__):
        module = importlib.import_module(f"nearwave.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == module.__name__):
                memos[f"{info.name}.{name}"] = value
    return memos


@pytest.fixture
def fresh_memos():
    """Empty every per-process memo of the package, so that call counts do
    not depend on which tests ran before; gives the memos by name."""
    memos = package_memos()
    for memo in memos.values():
        memo.cache_clear()
    return memos
