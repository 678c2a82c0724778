"""Append-only on-disk cache of limiting-constant estimates.

One JSON record per line: the ConstantKey's fields, ``estimate``,
``std_error``, ``boundary_fraction``, the ``stream`` layout that drew the
estimate and a sha256-prefix ``checksum`` of the other fields, so that
truncated or hand-edited lines are detected and skipped with a warning
instead of silently poisoning later runs.  A line from another random-stream
layout is skipped too: the same key estimates another number there.  A line
with extra fields still loads; its checksum covers them too.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from pathlib import Path

from .constants import ConstantKey, ConstantValue
from .model import _STREAM_LAYOUT, _warn

__all__ = ["ConstantCache"]


def _checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class ConstantCache:
    """Single-writer, many-reader line cache keyed by the full ConstantKey."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[ConstantKey, ConstantValue] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for lineno, line in enumerate(self.path.read_bytes().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode())  # UnicodeDecodeError is a ValueError
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                stored = rec.pop("checksum")
                if stored != _checksum(rec):
                    raise ValueError("checksum mismatch")
                stream = rec.get("stream")
                if stream != _STREAM_LAYOUT:
                    _warn(
                        f"{self.path}:{lineno}: skipping cache line from another random-stream "
                        f"layout ({stream!r}, this version draws {_STREAM_LAYOUT!r})"
                    )
                    continue
                key = ConstantKey(**{f.name: rec[f.name] for f in fields(ConstantKey)})
                value = ConstantValue(
                    estimate=rec["estimate"],
                    std_error=rec["std_error"],
                    boundary_fraction=rec["boundary_fraction"],
                    n=rec["n_samples"],
                )
            except (ValueError, KeyError, TypeError) as exc:
                _warn(f"{self.path}:{lineno}: skipping corrupt cache line ({exc})")
                continue
            self._records[key] = value

    def lookup(self, key: ConstantKey):
        return self._records.get(key)

    def append(self, key: ConstantKey, value: ConstantValue) -> None:
        rec = {f.name: getattr(key, f.name) for f in fields(key)}
        rec.update(
            estimate=value.estimate,
            std_error=value.std_error,
            boundary_fraction=value.boundary_fraction,
            stream=_STREAM_LAYOUT,
        )
        rec["checksum"] = _checksum(rec)
        with self.path.open("a+b") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            lead = b"" if fh.read(1) in (b"", b"\n") else b"\n"  # end a line cut short first
            fh.write(lead + json.dumps(rec, sort_keys=True).encode() + b"\n")
        self._records[key] = value

    def __len__(self) -> int:
        return len(self._records)
