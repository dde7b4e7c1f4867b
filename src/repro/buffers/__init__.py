"""Buffer substrates for every producer-consumer implementation.

* :class:`BoundedBuffer` — the one bounded FIFO, standing in for the
  paper's circular buffer (§III-A), Mutex's counted non-circular buffer
  and PBPL's resizable per-consumer buffer (§V-C), with one overflow
  model: an ``overflows`` counter and the degradation policies
  ``block`` / ``drop-oldest`` / ``drop-newest`` / ``shed-to-deadline``;
* :class:`GlobalBufferPool` — the elastic global preallocation that
  lends slots between consumers (paper Fig. 8).
"""

from repro.buffers.bounded import (
    OVERFLOW_POLICIES,
    BoundedBuffer,
    BufferOverflow,
    BufferUnderflow,
)
from repro.buffers.pool import GlobalBufferPool

__all__ = [
    "BoundedBuffer",
    "BufferOverflow",
    "BufferUnderflow",
    "GlobalBufferPool",
    "OVERFLOW_POLICIES",
]
