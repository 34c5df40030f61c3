"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_symmetric(rng, d, scale=1.0):
    G = rng.standard_normal((d, d))
    return scale * 0.5 * (G + G.T)


def random_psd(rng, d, scale=1.0):
    G = rng.standard_normal((d, d + 2))
    return scale * (G @ G.T) / (d + 2)


def random_stiefel(rng, d, r):
    Q, R = np.linalg.qr(rng.standard_normal((d, r)))
    return Q * np.sign(np.diag(R))


def inverse_sqrt(S):
    """Symmetric inverse square root T of a positive definite S, from numpy's
    eigh: T S T = I, so T Q meets the total-scatter constraint for any
    orthonormal Q."""
    vals, vecs = np.linalg.eigh(S)
    assert vals.min() > 0
    return (vecs / np.sqrt(vals)) @ vecs.T


def peak_bytes(fn):
    """Peak bytes that ``fn()`` allocates on top of what was live at its call,
    as ``tracemalloc`` counts them; numpy reports its array buffers there.
    Tracing is started for the call and stopped after it unless it was already
    on."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
