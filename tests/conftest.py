import importlib
import pkgutil

from hypothesis import settings

import sunpump

# every property test is deterministic: a fixed example sequence, no
# example database, no per-example deadline on a loaded machine
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

# hypothesis also draws examples from the literals of the local modules
# loaded when a test runs; with every sunpump module loaded before
# collection, that pool, and so each test's examples, is the same
# whichever test files a run selects
for _module in pkgutil.iter_modules(sunpump.__path__):
    importlib.import_module(f"sunpump.{_module.name}")
