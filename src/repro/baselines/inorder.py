"""The vanilla in-order baseline.

This is :class:`~repro.engine.base.CoreModel` unchanged: the pipeline
stalls at the first instruction that uses a missing load's value, while
independent accesses behind it in the fetch queue wait.  Table 1's
non-blocking hierarchy still overlaps misses that issue before the
pipeline blocks.
"""

from __future__ import annotations

from ..engine.base import CoreModel


class InOrderCore(CoreModel):
    """2-way superscalar stall-on-use in-order pipeline."""

    name = "in-order"
