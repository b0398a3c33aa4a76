"""Resource guards for exhaustive operations.

Two caps apply: ``max_elements`` bounds carriers of relational operations
(orders, products, topologies as neighborhood tables), while
``max_subset_elements`` bounds operations that enumerate all 2^n subsets
of a carrier (breadth search, filter enumeration, open-family
materialization, subset tables).  A third, ``max_search_nodes``, is a work
budget, not a size: the hom search counts the nodes it visits and stops at
the budget, whatever the ends' sizes (see ``morphisms._search``); it is a
constant that no setting changes.  The limits are one policy, and the
environment variable ``ORDLAB_MAX_ELEMENTS`` is its only setting: it
overrides the element cap and can lower the subset cap but never raise it
above its default, since a 2^64-entry table or open family cannot be
built.  No function takes limits as an argument: a guard reads the
variable when it runs, through :func:`default_limits`, and every public
function guards when it is called.  An exhaustive campaign guards each
instance size once, in its instance source before the first instance of
that size, and its checks build their tables through unguarded private
builders, so a run reads the variable a few times, not once per instance.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import NamedTuple, NoReturn, Optional, Sequence

from .errors import LimitExceededError, MalformedInputError

DEFAULT_MAX_SUBSET_ELEMENTS = 20
DEFAULT_MAX_ELEMENTS = 64

ENV_MAX_ELEMENTS = "ORDLAB_MAX_ELEMENTS"


class Limits(NamedTuple):
    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_subset_elements: int = DEFAULT_MAX_SUBSET_ELEMENTS
    max_search_nodes: int = 500_000


def default_limits() -> Limits:
    """Limits in effect, honoring the ORDLAB_MAX_ELEMENTS override
    (which sets the element cap and at most lowers the subset cap)."""
    return _parse(os.environ.get(ENV_MAX_ELEMENTS))


@lru_cache(maxsize=4)  # the guards of one run read one value
def _parse(raw: Optional[str]) -> Limits:
    if raw is None:
        return Limits()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise MalformedInputError(f"{ENV_MAX_ELEMENTS} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise MalformedInputError(f"{ENV_MAX_ELEMENTS} must be positive, got {cap}")
    return Limits(max_elements=cap, max_subset_elements=min(cap, DEFAULT_MAX_SUBSET_ELEMENTS))


def _refuse(what: str, shown: object, cap: int) -> NoReturn:
    raise LimitExceededError(f"{what}: {shown} elements exceeds limit {cap}")


def check_elements(n: int, what: str) -> None:
    cap = default_limits().max_elements
    if n > cap:
        _refuse(what, n, cap)


def check_product(sizes: Sequence[int], what: str) -> int:
    """The carrier size ``math.prod(sizes)``, held to the element cap.  The
    running product is compared with the cap, so a size far past it is
    never multiplied out; past 64 bits the message names a power of two
    the size reaches (``str`` refuses ints of more than 4,300 digits)."""
    cap = default_limits().max_elements
    total = 1
    for s in sizes:
        total *= s
        if total > cap:
            bits = sum(k.bit_length() - 1 for k in sizes)  # 2^bits <= the size
            _refuse(what, math.prod(sizes) if bits < 64 else f"2^{bits} or more", cap)
    return total


def check_power_of_two(exponent: int, what: str) -> int:
    """The carrier size ``2 ** exponent``, held to the element cap on the
    exponent (2^e exceeds the cap exactly when e reaches its bit length), so
    a huge size is never built; past 64 bits the message shows it as 2^e."""
    cap = default_limits().max_elements
    if exponent >= cap.bit_length():
        _refuse(what, 1 << exponent if exponent < 64 else f"2^{exponent}", cap)
    return 1 << exponent


def check_subset_elements(n: int, what: str) -> None:
    lim = default_limits()
    if n > lim.max_subset_elements:
        raise LimitExceededError(
            f"{what}: {n} elements exceeds subset-enumeration limit {lim.max_subset_elements}"
        )

