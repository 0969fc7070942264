from hypothesis import settings

# Generated cases are the same on every run and kept in no example database;
# an example's run time is not a failure.
settings.register_profile("ergofusion", derandomize=True, deadline=None, database=None)
settings.load_profile("ergofusion")
