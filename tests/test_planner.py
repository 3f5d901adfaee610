"""The residue planner, elliptic.graph_values, and the disk cache under it."""

import json
from fractions import Fraction

import pytest

import vsc.cache
import vsc.elliptic
import vsc.genus0
import vsc.parallel
from vsc.cache import ResidueCache, chain_key
from vsc.cli import main
from vsc.elliptic import graph_residue, graph_values
from vsc.genus0 import Genus0Chain, chain_residue, genus0_constant
from vsc.graphs import LoopGraph, PointGraph, StarGraph

G1_ARGV = ("g1", "--N", "4", "--k", "1", "--d", "1", "--ins", "2:3")


@pytest.fixture
def empty_memo():
    """An empty genus-0 memo for the test; the previous contents come back after."""
    saved = dict(vsc.genus0.memo)
    vsc.genus0.memo.clear()
    yield vsc.genus0.memo
    vsc.genus0.memo.clear()
    vsc.genus0.memo.update(saved)


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every process pool opened during the test."""
    sizes = []

    class CountingPool(vsc.parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(vsc.parallel, "ProcessPoolExecutor", CountingPool)
    return sizes


def run(capsys, *argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


@pytest.mark.parametrize("record", [
    {"num": "3", "den": "0"},
    {"num": "3"},
    ["3", "1"],
], ids=["zero-denominator", "missing-field", "json-list"])
def test_malformed_record_is_a_miss(tmp_path, capsys, empty_memo, record):
    argv = (*G1_ARGV, "--threads", "1", "--cache-dir", str(tmp_path / "g1"))
    assert run(capsys, *argv) == (0, "-3/8\n")
    cache = ResidueCache(tmp_path / "g0")
    job = (Genus0Chain(1, 1, 0), ((2, 3),))
    (expected,) = graph_values(4, 1, [job], cache)
    empty_memo.clear()
    paths = [*(tmp_path / "g1").glob("*.json"), *(tmp_path / "g0").glob("*.json")]
    assert len(paths) == 3
    good = {path: path.read_text() for path in paths}
    for path in paths:
        if isinstance(record, dict):
            key = json.loads(good[path])["key"]
            path.write_text(json.dumps({"key": key, **record}))
        else:
            path.write_text(json.dumps(record))
    assert run(capsys, *argv) == (0, "-3/8\n")
    assert graph_values(4, 1, [job], cache) == [expected]
    assert (cache.hits, cache.misses) == (0, 2)
    # every miss was recomputed and rewritten
    assert {path: path.read_text() for path in paths} == good


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(capsys, pool_sizes, threads):
    code, out = run(capsys, *G1_ARGV, "--no-cache", "--threads", threads)
    assert code == 2 and out == ""
    assert pool_sizes == []


def test_pool_never_exceeds_job_count(capsys, pool_sizes):
    # g1 at d = 1 has two graphs, so three threads open a pool of two
    assert run(capsys, *G1_ARGV, "--no-cache", "--threads", "3") == (0, "-3/8\n")
    assert pool_sizes == [2]


@pytest.mark.parametrize("argv", [
    ("gw", "--N", "4", "--k", "1", "--dmax", "3"),
    ("bcov", "--k", "4", "--dmax", "3"),
], ids=["gw", "bcov"])
def test_warm_run_evaluates_no_chain(tmp_path, capsys, monkeypatch, empty_memo,
                                     pool_sizes, argv):
    argv = (*argv, "--cache-dir", str(tmp_path))
    cold = run(capsys, *argv, "--threads", "1")
    built = []

    def counting(fn):
        def wrapper(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(vsc.genus0, "_integrand", counting(vsc.genus0._integrand))
    monkeypatch.setattr(vsc.elliptic, "_graph_integrand",
                        counting(vsc.elliptic._graph_integrand))
    # the cold run filled the memo too; only the disk cache may serve the warm run
    empty_memo.clear()
    assert run(capsys, *argv, "--threads", "2") == cold
    assert cold[0] == 0
    assert built == []
    assert pool_sizes == []


def test_genus0_record_of_another_schema_is_a_miss(tmp_path, monkeypatch, empty_memo):
    cache = ResidueCache(tmp_path)
    job = (Genus0Chain(2, 1, 0), ((2, 6),))
    truth = chain_residue(4, 1, *job)
    cache.put(chain_key(4, 1, 2, 1, 0, "2:6"), Fraction(100))
    # under the schema it was written with, the record is served, memo included
    assert graph_values(4, 1, [job], cache) == [100]
    assert genus0_constant(4, 1, 2, 1, 0, {2: 6}) == 100
    empty_memo.clear()
    monkeypatch.setattr(vsc.cache, "SCHEMA", vsc.cache.SCHEMA + 1)
    assert graph_values(4, 1, [job], cache) == [truth]
    assert (cache.hits, cache.misses) == (1, 1)
    assert genus0_constant(4, 1, 2, 1, 0, {2: 6}) == truth


def test_genus1_record_of_the_earlier_layout_is_served(tmp_path):
    # the record and file name as genus-1 records have been written since
    # the schema entered the key
    key = {"schema": 1, "N": 4, "k": 1, "d": 1, "graph": "star(1)", "ins": "2:3"}
    name = "g1_N4_k1_d1_star-1_1975970e8ad5.json"
    (tmp_path / name).write_text(json.dumps({"key": key, "num": "100", "den": "1"}))
    cache = ResidueCache(tmp_path)
    assert graph_values(4, 1, [(StarGraph((1,)), ((2, 3),))], cache) == [100]
    assert cache.hits == 1


def test_planner_keeps_job_order_and_computes_duplicates_once(monkeypatch, empty_memo):
    star, loop, point = StarGraph((1,)), LoopGraph(2), PointGraph(1)
    low, high = Genus0Chain(1, 1, 0), Genus0Chain(2, 1, 0)
    jobs = [(star, ((2, 3),)), (low, ((2, 3),)), (loop, ((2, 6),)),
            (star, ((2, 3),)), (high, ((2, 6),)), (point, ((2, 3),)),
            (low, ((2, 3),))]
    ran = []
    serial = vsc.elliptic.parallel_map

    def recording(fn, items, workers=1):
        items = list(items)
        ran.extend(items)
        return serial(fn, items, workers)

    monkeypatch.setattr(vsc.elliptic, "parallel_map", recording)
    values = graph_values(4, 1, jobs)
    # each distinct job once, highest degree first, ties in job order
    assert [tuple(item[2:]) for item in ran] == [
        jobs[2], jobs[4], jobs[0], jobs[1], jobs[5]]
    expected = [chain_residue(4, 1, part, ins_t) if isinstance(part, Genus0Chain)
                else graph_residue(4, 1, part, ins_t) for part, ins_t in jobs]
    assert values == expected
    # genus-0 values went to the memo that genus0_constant reads
    assert genus0_constant(4, 1, 2, 1, 0, {2: 6}) == values[4]
