"""Strict keys for the plain-data ``from_dict`` constructors.

Every config and spec class that round-trips through ``to_dict`` /
``from_dict`` takes exactly its constructor's parameters as keys.  A key
outside that set — a typo, or a field a later version deleted — raises
instead of being silently dropped, so a stale saved spec fails loudly.
"""

from __future__ import annotations

import inspect
from typing import Any, Mapping


def check_keys(cls: type, data: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` when ``data`` has a key ``cls.__init__`` does
    not take, naming the stray key(s) and the allowed set."""
    allowed = list(inspect.signature(cls.__init__).parameters)[1:]  # no self
    stray = sorted(set(data).difference(allowed))
    if stray:
        raise ValueError(
            f"{cls.__name__}: unknown key(s) {stray}; "
            f"allowed: {sorted(allowed)}"
        )
