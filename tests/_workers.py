"""How many threads run a convolution's forward bands and backward input
groups, set by a test whatever the machine's CPU count and thread
variables."""

import contextlib

import pytest

from cgnet import nn


@contextlib.contextmanager
def band_workers(k):
    """Inside the block a convolution runs its bands and its backward's
    groups on ``k`` threads; the process's own pool is rebuilt from its
    rule after the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_band_workers", lambda: k)
        nn._band_pool.cache_clear()
        try:
            yield
        finally:
            nn._band_pool.cache_clear()
