"""Shared test fixtures."""

import numpy as np
import pytest

from msgdlab.models import LossModel


def _repelling_for_stream(bad: int):
    """grad l(theta, u) = u * theta; the data are 1 except for the replication
    whose stream path ends in `bad`, where they are -10, so that replication
    grows by a factor 6 each step of size 1/2 while the others contract."""

    def sample_data(streams, count, out=None):
        block = np.empty((len(streams), count, 1)) if out is None else out
        for row, stream in zip(block, streams):
            stream.generator.standard_normal(count)  # consume like a real data law
            row[:] = -10.0 if stream.path[-1] == bad else 1.0
        return block

    return LossModel(
        name="repelling_for_stream",
        dim=1,
        payload_dim=1,
        objective=lambda theta: 0.5 * np.sum(np.square(theta), axis=-1),
        grad_objective=lambda theta: np.asarray(theta, dtype=float),
        sample_data=sample_data,
        grad_loss=lambda theta, data: data * np.asarray(theta)[..., None, :],
        noise_factor=lambda theta: np.zeros((1, 1)),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=1.0,
        minimizer=np.zeros(1),
    )


@pytest.fixture
def repelling_for_stream():
    """Factory of a model under which exactly one replication diverges."""
    return _repelling_for_stream
