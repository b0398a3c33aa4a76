"""A fixed pure-Python reference workload that gauges the host's speed.

The benchmark runs on a shared host whose speed drifts by up to 2x for
minutes at a time; the drift moves every Python process alike, ordlab's
children and this loop too.  The runner interleaves reference chunks
with a workload's commands and rescales the run's times by
``NOMINAL_CHUNK_S / mean chunk time``, so the reported times read as if
the host ran at one fixed speed.

A chunk does the kinds of work ordlab's hot paths do (function calls,
small-int bit operations, dict and set lookups, tuple and frozenset
allocation) and chases pointers through a table larger than the CPU's
caches, as ordlab's bigger runs do.  It touches nothing of ordlab, so
no change to the program can move it.
"""

from __future__ import annotations

import time

# mean chunk time on a 2.0 GHz Xeon vCPU with Python 3.11; it only
# fixes the scale of the rescaled times
NOMINAL_CHUNK_S = 0.035
_ITEMS = 1 << 10
_TABLE_SIZE = 1 << 20  # a permutation of this many ints is about 40 MB
_table: list[int] = []
_at = [0]  # where the walk through the table stands, kept across chunks


def _step(mask: int, table: dict, seen: set) -> int:
    low = mask & -mask
    key = (mask ^ low) & (_ITEMS - 1)
    seen.add(frozenset((key, low & 0xFF)))
    table[key] = table.get(key, 0) + 1
    return (mask * 2654435761 + low) & 0xFFFFFFFF


def _big_table() -> list[int]:
    """i -> (a*i + 1) mod 2^k with a = 1 mod 4: one cycle through every
    index, in an order that jumps across the whole table."""
    if not _table:
        _table.extend([(i * 1_000_001 + 1) % _TABLE_SIZE for i in range(_TABLE_SIZE)])
    return _table


def chunk() -> int:
    """One fixed unit of work; returns a checksum so it cannot be skipped."""
    table: dict = {}
    seen: set = set()
    mask = 1
    for _ in range(12_000):
        mask = _step(mask, table, seen) or 1
    big = _big_table()
    at = _at[0]
    for _ in range(40_000):
        at = big[at]
    _at[0] = at
    return len(table) + len(seen) + mask + at


def run(min_seconds: float) -> list[float]:
    """Run whole chunks for at least ``min_seconds`` (at least one chunk);
    return the time each chunk took."""
    times = []
    start = last = time.monotonic()
    while True:
        chunk()
        now = time.monotonic()
        times.append(now - last)
        last = now
        if now - start >= min_seconds:
            return times
