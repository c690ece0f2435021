"""Shared pytest configuration for the test suite."""

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # hypothesis caches the constants of the source tree on disk while the
    # tests are collected, whatever a test's database setting says; keep that
    # cache inside pytest's own cache directory instead of a new .hypothesis/
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
