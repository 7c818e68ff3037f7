from hypothesis import settings

# Property tests draw the same examples on every run; a test's own @settings
# only sets how many.
settings.register_profile("cqedlat", derandomize=True, deadline=None, database=None)
settings.load_profile("cqedlat")
