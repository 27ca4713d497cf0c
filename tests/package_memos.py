"""The package's module-level memos, found by walking its modules, so a
memo added later is covered by the tests that use them."""

import importlib
import pkgutil

import galois_kit
from galois_kit import clusters


def module_memos():
    """Every ``functools`` cache defined at the top level of a
    ``galois_kit`` module, by ``module.name``."""
    memos = {}
    for info in pkgutil.iter_modules(galois_kit.__path__):
        module = importlib.import_module(f"galois_kit.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = value
    return memos


def clear_memos():
    """Empty every module-level memo and the kept split orders, so the next
    call runs cold."""
    for memo in module_memos().values():
        memo.cache_clear()
    clusters._kept_orders.clear()
