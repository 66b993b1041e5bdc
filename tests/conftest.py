from hypothesis import settings

# every property test is deterministic: a fixed example sequence, no
# example database, no per-example deadline on a loaded machine
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
