"""Disk cache for per-graph elliptic residue values.

One JSON record per key.  Values are exact rationals stored as two decimal
integer strings, so records survive any JSON number handling.  Writes go to
a temp file in the same directory and are renamed into place, which keeps
concurrent runs from ever reading a half-written record.  The key carries
the integrand schema, so a record from an older integrand is a miss and
gets recomputed, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

__all__ = ["ResidueCache", "default_cache_dir"]

ENV_VAR = "VSC_CACHE"
# Bump whenever a graph integrand in elliptic.py changes the value it yields.
SCHEMA = 1


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_VAR) or ".vsc-cache")


def _slug(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode()).hexdigest()[:12]
    human = "g1_N{N}_k{k}_d{d}_{graph}".format(**key)
    human = re.sub(r"[^A-Za-z0-9_-]+", "-", human).strip("-")
    return f"{human}_{digest}.json"


class ResidueCache:
    """Maps (N, k, d, graph label, insertion string) to an exact rational."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _key(self, N: int, k: int, d: int, graph: str, ins: str) -> dict:
        return {"schema": SCHEMA, "N": N, "k": k, "d": d, "graph": graph, "ins": ins}

    def get(self, N: int, k: int, d: int, graph: str, ins: str) -> Fraction | None:
        key = self._key(N, k, d, graph, ins)
        path = self.directory / _slug(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("key") != key:  # hash collision or foreign file
            self.misses += 1
            return None
        self.hits += 1
        return Fraction(int(record["num"]), int(record["den"]))

    def put(self, N: int, k: int, d: int, graph: str, ins: str, value: Fraction) -> None:
        key = self._key(N, k, d, graph, ins)
        record = {"key": key, "num": str(value.numerator), "den": str(value.denominator)}
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.replace(tmp, self.directory / _slug(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
