"""GC guard for the per-message RNIC pipeline.

Each posted WQE runs as one slotted record whose stages are scheduled
as bound methods, so a completed message leaves nothing for the cyclic
garbage collector.  A per-message closure nest (stages that refer to
each other, or a record holding a closure over itself) leaves a
reference cycle behind every WQE; over hundreds of thousands of
messages that garbage is what drives gen-0..2 collections.

The guard runs ``n`` WQEs with ``gc`` disabled and counts what
``gc.collect()`` then finds: it must not grow with ``n``.
"""

import gc

import pytest

from repro.host import Cluster
from tests.rnic.pipeline_scenarios import SHAPES

SMALL, LARGE = 50, 500
#: Unreachable objects a run may leave regardless of its length.
SLACK = 20


def _cyclic_garbage(shape, n):
    cluster = Cluster(seed=11)
    gc.collect()
    gc.disable()
    try:
        SHAPES[shape](cluster, shape, n)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cyclic_garbage_does_not_grow_with_messages(shape):
    small = _cyclic_garbage(shape, SMALL)
    large = _cyclic_garbage(shape, LARGE)
    assert large <= small + SLACK, (
        f"{shape}: {LARGE} WQEs left {large} unreachable objects, "
        f"{SMALL} WQEs left {small}: something per message forms a cycle")
