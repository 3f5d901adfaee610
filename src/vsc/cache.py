"""Disk cache for residue values: genus-1 graph residues and genus-0 chains.

One JSON record per key.  Values are exact rationals stored as two decimal
integer strings, so records survive any JSON number handling; a record that
does not hold two such integers with a nonzero denominator is a miss, gets
recomputed and is rewritten.  Writes go to a temp file in the same directory
and are renamed into place, which keeps concurrent runs from ever reading a
half-written record.  Every key carries the integrand schema, so a record
from an older integrand is a miss and gets recomputed, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

__all__ = ["ResidueCache", "default_cache_dir", "graph_key", "chain_key"]

ENV_VAR = "VSC_CACHE"
# Bump whenever an integrand changes the value it yields: a layout in
# elliptic.py or genus0._integrand, or genus0.integrand, the shared builder
# that assembles every one of them (with genus0.numerator and
# genus0.midpoint).  A change to an integrand that keeps every chain value
# keeps the schema: numerators capped below their opening poles drop terms
# that no residue reads, and chains and tails taken ends first, a cluster
# layout in u = w - z_core, residues left unreduced and stars and clusters
# taken as products of their tail and cluster-core pieces all yield the same
# values, so records stay right; so do tail pieces laid out on genus0.path,
# which only reorders their denominator factors.
SCHEMA = 1

_DECIMAL = re.compile(r"-?[0-9]+")


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_VAR) or ".vsc-cache")


def graph_key(N: int, k: int, d: int, graph: str, ins: str) -> dict:
    """Key of a genus-1 graph residue, by graph label and insertion string."""
    return {"schema": SCHEMA, "N": N, "k": k, "d": d, "graph": graph, "ins": ins}


def chain_key(N: int, k: int, d: int, a: int, b: int, ins: str) -> dict:
    """Key of a genus-0 chain value, by endpoint slots and insertion string."""
    return {"schema": SCHEMA, "kind": "g0", "N": N, "k": k, "d": d,
            "a": a, "b": b, "ins": ins}


def _slug(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode()).hexdigest()[:12]
    if key.get("kind") == "g0":
        human = "g0_N{N}_k{k}_d{d}_a{a}_b{b}".format(**key)
    else:
        human = "g1_N{N}_k{k}_d{d}_{graph}".format(**key)
    human = re.sub(r"[^A-Za-z0-9_-]+", "-", human).strip("-")
    return f"{human}_{digest}.json"


def _value(record, key: dict) -> Fraction | None:
    if not isinstance(record, dict) or record.get("key") != key:
        return None  # foreign file or hash collision
    num, den = record.get("num"), record.get("den")
    if not all(isinstance(s, str) and _DECIMAL.fullmatch(s) for s in (num, den)) \
            or int(den) == 0:
        return None
    return Fraction(int(num), int(den))


class ResidueCache:
    """Maps a graph_key or chain_key to an exact rational."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def get(self, key: dict) -> Fraction | None:
        try:
            value = _value(json.loads((self.directory / _slug(key)).read_text()), key)
        except (OSError, ValueError):
            value = None
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: dict, value: Fraction) -> None:
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
