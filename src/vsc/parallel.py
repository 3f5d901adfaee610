"""Order-preserving map with an optional process pool.

Residue chains are pure CPU work on picklable tuples, so processes are the
only parallelism that pays; with workers <= 1 everything stays in-process,
which is also the mode most tests use.  A pool never has more processes
than items: a fork-started pool launches all of them at once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")

__all__ = ["parallel_map"]


def parallel_map(fn: Callable[[A], B], items: Iterable[A], workers: int = 1) -> list[B]:
    seq: Sequence[A] = list(items)
    workers = min(workers, len(seq))
    if workers <= 1:
        return [fn(item) for item in seq]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
