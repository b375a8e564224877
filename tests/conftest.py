from hypothesis import settings

# Property tests draw the same examples on every run, and slow first calls
# (imports, cached builds) do not count as failures.
settings.register_profile("hartool", derandomize=True, deadline=None)
settings.load_profile("hartool")
