"""Resource guards for exhaustive operations.

Two caps apply: ``max_elements`` bounds carriers of relational operations
(orders, products, topologies as neighborhood tables), while
``max_subset_elements`` bounds operations that enumerate all 2^n subsets
of a carrier (breadth search, filter enumeration, open-family
materialization).  The environment variable ``ORDLAB_MAX_ELEMENTS``
overrides the element cap; it can lower the subset cap but never raise
it above its default, since a 2^64-entry table or open family cannot be
built.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import LimitExceededError, MalformedInputError

DEFAULT_MAX_SUBSET_ELEMENTS = 20
DEFAULT_MAX_ELEMENTS = 64

ENV_MAX_ELEMENTS = "ORDLAB_MAX_ELEMENTS"


class Limits(NamedTuple):
    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_subset_elements: int = DEFAULT_MAX_SUBSET_ELEMENTS
    max_maps: int = 10_000_000


def default_limits() -> Limits:
    """Limits in effect, honoring the ORDLAB_MAX_ELEMENTS override
    (which sets the element cap and at most lowers the subset cap)."""
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    if raw is None:
        return Limits()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise MalformedInputError(f"{ENV_MAX_ELEMENTS} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise MalformedInputError(f"{ENV_MAX_ELEMENTS} must be positive, got {cap}")
    return Limits(max_elements=cap, max_subset_elements=min(cap, DEFAULT_MAX_SUBSET_ELEMENTS))


def check_elements(n: int, limits: Limits | None, what: str) -> None:
    lim = limits if limits is not None else default_limits()
    if n > lim.max_elements:
        raise LimitExceededError(f"{what}: {n} elements exceeds limit {lim.max_elements}")


def check_subset_elements(n: int, limits: Limits | None, what: str) -> None:
    lim = limits if limits is not None else default_limits()
    if n > lim.max_subset_elements:
        raise LimitExceededError(
            f"{what}: {n} elements exceeds subset-enumeration limit {lim.max_subset_elements}"
        )


def check_maps(count: int, limits: Limits | None, what: str) -> None:
    lim = limits if limits is not None else default_limits()
    if count > lim.max_maps:
        raise LimitExceededError(f"{what}: {count} candidate maps exceeds limit {lim.max_maps}")
