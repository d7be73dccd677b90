"""Desk-scale enumeration caps, the report schema version and the one JSON writer, shared across the package."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Hard bounds on exhaustive enumerations.

    field_order: largest finite field that may be constructed.
    group_order: largest ambient matrix group that may be enumerated.
    algebra_order: largest etale algebra whose elements/units may be listed.
    pell_d: largest d accepted by the Pell sweep.
    """

    field_order: int = 1 << 20
    group_order: int = 20_000
    algebra_order: int = 1 << 20
    pell_d: int = 1_000_000


DEFAULT_CAPS = Caps()

SCHEMA_VERSION = 4


def stable_json(doc: dict) -> str:
    """doc as compact JSON with sorted keys: what stdout prints and what the cache hashes and stores."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
