import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Runs fn() under tracemalloc; returns its result and the traced peak
    above the memory already held when it started, in bytes."""
    def run(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    return run
