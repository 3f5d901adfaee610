"""Exact output checks for the benchmark workloads.

Each check function takes a child's output (None when the child failed) and
returns a list of (name, ok) pairs whose length does not depend on the
output, so a crash or a missing row counts as failed checks, never as fewer
attempts.  Comparisons are on exact rationals and use no `assert`, so they
hold under `python -O`.

Golden values are copied from tests/test_acceptance.py: the THREEFOLD_D2[1]
rows, the (3,6,3) anchor of gw_table(5,1,3), and the degree-1 surface table
(`gw --N 4 --k 1`) extended to d=4 by test_extended_surface_high_degrees.
"""

from fractions import Fraction
from math import factorial

# (d, m2, m3) -> (n0, n1, combo, w) for gw_table(5, 1, ·)
THREEFOLD_K1 = {
    (1, 0, 2): (1, Fraction(-1, 12), 0, Fraction(-7, 12)),
    (1, 2, 1): (1, Fraction(-1, 12), 0, Fraction(-5, 6)),
    (1, 4, 0): (2, Fraction(-1, 6), 0, Fraction(-7, 6)),
    (2, 0, 4): (0, 0, 0, Fraction(-76, 3)),
    (2, 2, 3): (1, Fraction(-1, 4), 0, Fraction(-853, 12)),
    (2, 4, 2): (4, Fraction(-1), 0, Fraction(-198)),
    (2, 6, 1): (18, Fraction(-9, 2), 0, Fraction(-1097, 2)),
    (2, 8, 0): (92, Fraction(-23), 0, Fraction(-4541, 3)),
}
# every (d, m2, m3) with m2 + 2 m3 = 4 d, d = 1..3: the rows gw_table(5,1,3) has
THREEFOLD_K1_KEYS = [(d, 4 * d - 2 * m3, m3) for d in (1, 2, 3)
                     for m3 in range(2 * d + 1)]

SURFACE_K1_W = [Fraction(-3, 8), Fraction(-63), Fraction(-77789), Fraction(-320162385)]
SURFACE_K1_N1 = [0, 0, 1, 225]

CY_IDENTITIES = [
    "cluster residues vanish",
    "stars match (chi/24) log Ltilde_0",
    "loop sum matches weighted log Ltilde_p",
    "graph sum matches BCOV-Zinger form",
    "alternating two-point sums invert Ltilde_0",
]


def fano_threefold(rows):
    """Checks on the rows of gw_table(5, 1, 3)."""
    by_key = {}
    for d, m2, m3, n0, n1, combo, w in rows or []:
        by_key[(d, m2, m3)] = tuple(Fraction(x) for x in (n0, n1, combo, w))
    out = [("rows are exactly the 15 insertion sets of d<=3",
            rows is not None and len(rows) == len(THREEFOLD_K1_KEYS)
            and sorted(by_key) == sorted(THREEFOLD_K1_KEYS))]
    for key, want in THREEFOLD_K1.items():
        out.append((f"golden row {key}", by_key.get(key) == want))
    anchor = by_key.get((3, 6, 3))
    out.append(("combo (3,6,3) == 1", anchor is not None and anchor[2] == 1))
    for key in THREEFOLD_K1_KEYS:
        row = by_key.get(key)
        out.append((f"combo {key} integral", row is not None and row[2].denominator == 1))
    return out


def cy_k3_d5(result):
    """Checks on cy_report(4, 5): its identities and the closed form of L~0."""
    result = result or {}
    identities = result.get("identities", {})
    out = [(name, identities.get(name) is True) for name in CY_IDENTITIES]
    out.append(("report.l0 == ltilde_zero_closed(4, 5)", result.get("l0_closed") is True))
    closed = [Fraction(factorial(4 * d), factorial(d) ** 4) for d in range(6)]
    out.append(("L~0 coefficients are (4d)!/(d!)^4",
                [Fraction(c) for c in result.get("l0", [])] == closed))
    return out


def surface_table(result):
    """Checks on the stdout of `vsc gw --N 4 --k 1 --dmax 4`."""
    lines = (result or {}).get("stdout", "").splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    shaped = (result is not None and result.get("exit") == 0
              and lines[:1] == ["d\ta\tn1\tn1_norm\tw"]
              and [r[0] for r in rows] == ["1", "2", "3", "4"]
              and all(len(r) == 5 for r in rows))
    out = [("exit 0 and table d=1..4", shaped)]
    for d in range(4):
        row = rows[d] if shaped else None
        out.append((f"w at d={d + 1}", row is not None and Fraction(row[4]) == SURFACE_K1_W[d]))
        out.append((f"n1 at d={d + 1}", row is not None and Fraction(row[2]) == SURFACE_K1_N1[d]))
    return out


def same_stdout(name, first, second):
    """One check: two CLI runs printed byte-identical output."""
    ok = (first is not None and second is not None and second.get("exit") == 0
          and first.get("stdout") == second.get("stdout"))
    return [(name, ok)]
