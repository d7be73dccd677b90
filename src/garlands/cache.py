"""Append-only disk cache for case reports, keyed by a hash of schema, case and caps.

The command line does not use it: the key leaves out the code, so a report
change without a schema bump would be served stale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from .config import SCHEMA_VERSION, Caps, stable_json


def case_key(case: dict, caps: Caps) -> str:
    """Caps are part of the key: they decide whether a case is skipped."""
    payload = stable_json({"schema": SCHEMA_VERSION, "case": case, "caps": dataclasses.asdict(caps)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class DiskCache:
    """Write-once JSON files under a directory; results must not depend on hits.

    The benchmark worker passes one to run_case and checks that re-served
    documents equal the computed ones.  A schema version bump invalidates
    everything (the version is part of both the key and the stored
    document); a file that does not hold a report document is a miss.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, key: str) -> dict | None:
        path = self.root / f"{key}.json"
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        report = doc.get("report") if isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION else None
        return report if isinstance(report, dict) else None

    def put(self, key: str, report: dict) -> None:
        path = self.root / f"{key}.json"
        if path.exists():
            return  # append-only: first write wins
        # a name per writer: with a shared one, concurrent writers rename each other's file away
        tmp = self.root / f"{key}.{os.urandom(8).hex()}.tmp"
        # compact: json's C encoder runs only without indent
        tmp.write_text(stable_json({"schema": SCHEMA_VERSION, "report": report}), encoding="utf-8")
        tmp.replace(path)
