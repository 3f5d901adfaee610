import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vsc

from vsc.calabi_yau import (alternating_two_point_sum, bcov_zinger_series,
                            cy_report, dilog_integral, family_series,
                            log_one_minus, ltilde, ltilde_zero_closed)
from vsc.pipeline import mirror_corrections
from vsc.series import TruncatedSeries


def test_ltilde_zero_matches_closed_form():
    assert ltilde(5, 0, 3) == ltilde_zero_closed(5, 3)
    assert ltilde(3, 0, 4) == ltilde_zero_closed(3, 4)


def test_ltilde_zero_closed_values():
    s = ltilde_zero_closed(5, 2)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 120
    assert s.coefficient(2) == Fraction(3628800, 32)


def test_ltilde_one_is_mirror_map_derivative():
    # Ltilde_1 = dt/dx = 1 + sum d c_d q^d for the one-variable mirror map
    cap = 3
    C = mirror_corrections(5, 5, cap)
    want = {(0, ()): Fraction(1)}
    for d in range(1, cap + 1):
        want[(d, ())] = d * C[1].coefficient(d, (0, 0))
    assert ltilde(5, 1, cap) == TruncatedSeries(0, cap, want)


def test_ltilde_validation():
    with pytest.raises(ValueError):
        ltilde(5, -1, 2)
    with pytest.raises(ValueError):
        ltilde(5, 4, 2)
    with pytest.raises(ValueError):
        ltilde(2, 0, 2)


def test_log_one_minus_agrees_with_series_log():
    k, cap = 3, 4
    direct = (TruncatedSeries.constant(1, 0, cap) -
              TruncatedSeries.q_power(1, 0, cap).scale(k ** k)).log()
    assert log_one_minus(k, cap) == direct
    assert dilog_integral(k, cap).coefficient(2) == Fraction(-(3 ** 6), 4)


QUINTIC_LOG_L0 = [120, 106200, 155136000]
QUINTIC_LOG_L1 = [770, 1139200, Fraction(6816105500, 3)]
QUINTIC_LOOPS = [0, Fraction(-1174875, 4), Fraction(-6913090625, 9)]
QUINTIC_IDENTITY = [-625, -782000, Fraction(-4338868750, 3)]


def test_quintic_report():
    r = cy_report(5, 3)
    assert [r.log_l0.coefficient(d) for d in (1, 2, 3)] == QUINTIC_LOG_L0
    assert [r.log_l1.coefficient(d) for d in (1, 2, 3)] == QUINTIC_LOG_L1
    assert [r.loops.coefficient(d) for d in (1, 2, 3)] == QUINTIC_LOOPS
    assert [r.lhs.coefficient(d) for d in (1, 2, 3)] == QUINTIC_IDENTITY
    assert r.rhs == r.lhs
    assert all(r.identities().values())


def test_even_degree_report():
    # the even-k branch weights log Ltilde_p by (k-2p)(k-2p-2)/8
    r = cy_report(4, 3)
    assert all(r.identities().values())
    assert not r.loops.is_zero()


def test_cubic_report():
    r = cy_report(3, 4)
    assert all(r.identities().values())


@pytest.mark.parametrize("k", [3, 5])
def test_alternating_sums_invert_ltilde_zero(k):
    inv = ltilde_zero_closed(k, 5).inverse()
    for d in range(1, 6):
        assert alternating_two_point_sum(k, d) == -inv.coefficient(d)


def test_family_series_uses_cache(tmp_path):
    from vsc.cache import ResidueCache
    cache = ResidueCache(tmp_path / "cy")
    first = family_series(5, 2, "loop", cache=cache)
    # second run must be served from the cache and agree
    assert family_series(5, 2, "loop", cache=cache) == first
    assert first.coefficient(2) == Fraction(-1174875, 4)


def test_bcov_zinger_series_is_graph_sum():
    r = cy_report(5, 2)
    assert bcov_zinger_series(5, 2) == r.graph_sum


def test_family_series_pool_matches_serial():
    assert family_series(5, 3, "star", workers=2) == family_series(5, 3, "star")


def test_ltilde_zero_check_survives_optimize():
    # a wrong Ltilde_0 must stop cy_report even when asserts are compiled out
    script = """
import sys
import vsc.calabi_yau as cy
from vsc.series import TruncatedSeries
if not sys.flags.optimize:
    sys.exit(2)
cy.ltilde_zero_closed = lambda k, q_cap: TruncatedSeries.constant(1, 0, q_cap)
try:
    cy.cy_report(5, 2)
except RuntimeError:
    sys.exit(0)
sys.exit(1)
"""
    src = str(Path(vsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
