"""Order-preserving map with an optional process pool.

Residue chains are pure CPU work on picklable tuples, so processes are the
only parallelism that pays; with workers <= 1 everything stays in-process,
which is also the mode most tests use.  A pool never has more processes
than items: a fork-started pool launches all of them at once.

The pool class is imported on its first lookup (PEP 562): only workers > 1
opens a pool, and `concurrent.futures` is the largest import `vsc` would make.
`parallel_map` reads it through the module, so an assigned class is used.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")

__all__ = ["parallel_map"]


def __getattr__(name: str):
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return globals().setdefault(name, ProcessPoolExecutor)


def parallel_map(fn: Callable[[A], B], items: Iterable[A], workers: int = 1) -> list[B]:
    seq: Sequence[A] = list(items)
    workers = min(workers, len(seq))
    if workers <= 1:
        return [fn(item) for item in seq]
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
