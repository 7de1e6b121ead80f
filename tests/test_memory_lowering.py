"""`augment_memory` has one lowering for every order: at J = 1 the
block-companion form is the first-order model itself."""

import dataclasses

import numpy as np
import pytest

import dirinfo as di
from dirinfo.model import ChannelModel


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                and not a.flags.writeable and not b.flags.writeable)
    return type(a) is type(b) and a == b


def test_channel_model_carries_no_metadata():
    assert "meta" not in {f.name for f in dataclasses.fields(ChannelModel)}


@pytest.mark.parametrize("seed", range(12))
def test_order_one_lowering_is_the_direct_first_order_model(seed):
    rng = np.random.default_rng(seed)
    p, q, K = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 2))
    C = rng.normal(size=(p, p))
    D = rng.normal(size=(p, q))
    X = rng.normal(size=(p, p))
    KV = X @ X.T + 0.5 * np.eye(p)
    Y = rng.normal(size=(q, q))
    R = Y @ Y.T + 0.5 * np.eye(q)
    Z = rng.normal(size=(p, p))
    Q = Z @ Z.T if K else np.zeros((p, p))
    kappa, horizon = float(rng.uniform(0.5, 5.0)), int(rng.integers(0, 20))
    history = rng.normal(size=(1, p))
    mem = di.memory_model([C], D, KV, R, Q if K else None, kappa, horizon,
                          cost_memory=K, initial_history=history)
    lowered = di.augment_memory(mem)
    direct = di.channel_model(C, D, KV, R, Q, kappa, horizon, initial_mean=history[0])
    for f in dataclasses.fields(ChannelModel):
        assert _same(getattr(lowered, f.name), getattr(direct, f.name)), f.name


@pytest.mark.parametrize("blocks, cost_memory, padded", [
    ([0.5, 0.25], 1, True),     # J = 2: the lower diagonal of the lifted K_V is zero
    ([0.5], 1, False),          # J = 1: the first-order model itself
])
def test_kv_regularized_is_read_off_the_lowered_model(blocks, cost_memory, padded):
    m = di.augment_memory(di.memory_model(blocks, 1.0, 1.0, 1.0, None, 1.0, 0,
                                          cost_memory=cost_memory))
    assert m.kv_regularized is padded
    assert m.kv_regularized == m.noise_for_inversion(0)[1]


def test_plain_model_needs_no_padding():
    assert di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0).kv_regularized is False
