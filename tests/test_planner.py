"""The residue planner, elliptic.graph_values, and the disk cache under it."""

import json
from fractions import Fraction

import pytest

import vsc.cache
import vsc.elliptic
import vsc.genus0
import vsc.parallel
from vsc.cache import ResidueCache, chain_key
from vsc.calabi_yau import cy_report
from vsc.chain import residue_chain
from vsc.cli import main
from vsc.elliptic import Piece, _part_integrand, graph_residue, graph_values
from vsc.genus0 import Genus0Chain, _integrand, chain_residue, genus0_constant
from vsc.graphs import LoopGraph, PointGraph, StarGraph
from vsc.pipeline import gw_table, mirror_corrections
from vsc.ratfun import RatExpr

from oracles import ascending_chain, uncapped_numerator, whole_integrand

G1_ARGV = ("g1", "--N", "4", "--k", "1", "--d", "1", "--ins", "2:3")


@pytest.fixture
def chain_builds(monkeypatch):
    """Names of the integrand builders called during the test, one per chain built:
    genus-0 chains, loops, points and the pieces of stars and clusters."""
    built = []

    def counting(fn):
        def wrapper(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(vsc.genus0, "_integrand", counting(vsc.genus0._integrand))
    monkeypatch.setattr(vsc.elliptic, "_part_integrand",
                        counting(vsc.elliptic._part_integrand))
    return built


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
def test_warm_run_evaluates_no_chain(tmp_path, capsys, empty_memo, chain_builds,
                                     pool_sizes, argv):
    argv = (*argv, "--cache-dir", str(tmp_path))
    cold = run(capsys, *argv, "--threads", "1")
    cold_builds = len(chain_builds)
    # the cold run filled the memo too; only the disk cache may serve the warm run
    empty_memo.clear()
    assert run(capsys, *argv, "--threads", "2") == cold
    assert cold[0] == 0
    assert len(chain_builds) == cold_builds
    assert pool_sizes == []


@pytest.mark.parametrize("argv, serial, pooled", [
    (("mirror", "--N", "5", "--k", "1", "--qcap", "3"), ("--threads", "1"), ("--threads", "2")),
    # g0 evaluates one chain, so it has no --threads
    (("g0", "--N", "4", "--k", "1", "--d", "2", "--a", "1", "--b", "0", "--ins", "2:6"), (), ()),
], ids=["mirror", "g0"])
def test_g0_and_mirror_go_through_the_cache(tmp_path, capsys, empty_memo, chain_builds,
                                            argv, serial, pooled):
    plain = run(capsys, *argv, "--no-cache")
    empty_memo.clear()
    cold = run(capsys, *argv, "--cache-dir", str(tmp_path), *serial)
    cold_builds = len(chain_builds)
    assert cold_builds > 0 and len(list(tmp_path.glob("*.json"))) > 0
    empty_memo.clear()
    warm = run(capsys, *argv, "--cache-dir", str(tmp_path), *pooled)
    assert warm == cold == plain and plain[0] == 0
    assert len(chain_builds) == cold_builds, "the warm run evaluated a chain"


@pytest.mark.parametrize("argv", [
    ("g0", "--N", "4", "--k", "1", "--d", "2", "--a", "1", "--b", "0", "--ins", "2:6"),
    G1_ARGV,
    ("mirror", "--N", "5", "--k", "1", "--qcap", "3"),
    ("gw", "--N", "4", "--k", "1", "--dmax", "2", "--threads", "1"),
    ("bcov", "--k", "4", "--dmax", "3"),
], ids=["g0", "g1", "mirror", "gw", "bcov"])
def test_unusable_cache_dir_fails_before_any_chain(tmp_path, capsys, chain_builds, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([*argv, "--cache-dir", str(blocker / "sub")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert str(blocker / "sub") in err
    assert chain_builds == []


def test_genus0_record_of_another_schema_is_a_miss(tmp_path, monkeypatch, empty_memo):
    cache = ResidueCache(tmp_path)
    job = (Genus0Chain(2, 1, 0), ((2, 6),))
    truth = chain_residue(4, 1, job[0], [job[1]])[0]
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


def test_memo_serves_before_the_disk(tmp_path):
    # a value in the memo is neither read from nor written to the disk cache
    jobs = [(StarGraph((1,)), ((2, 3),)), (PointGraph(1), ((2, 3),)),
            (Genus0Chain(1, 1, 0), ((2, 3),))]
    values = graph_values(4, 1, jobs)
    cache = ResidueCache(tmp_path)
    assert graph_values(4, 1, jobs, cache) == values
    assert (cache.hits, cache.misses) == (0, 0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", [
    lambda: gw_table(5, 1, 3, workers=2), lambda: cy_report(4, 5, workers=2),
], ids=["gw_table(5,1,3)", "cy_report(4,5)"])
def test_repeated_call_walks_no_chain(chain_builds, pool_sizes, table):
    # the first call runs every chain on one pool; the second reads the memo
    first = table()
    builds = len(chain_builds)
    assert pool_sizes == [2]
    assert table() == first
    assert len(chain_builds) == builds, "the repeated call built an integrand"
    assert pool_sizes == [2], "the repeated call opened a pool"


@pytest.mark.parametrize("before", [(5, 1, 3), (4, 1, 3)], ids=["same N", "same N-k"])
def test_table_after_another_equals_the_table_alone(empty_memo, before):
    # as both have N - k = 3, gw_table(4, 1, 3) shares many (graph, set)
    # jobs with gw_table(5, 2, 3), at other values
    alone = gw_table(5, 2, 3)
    empty_memo.clear()
    gw_table(*before)
    assert gw_table(5, 2, 3) == alone


def test_memo_keys_carry_N_and_k():
    # a set on the selection rule fixes N - k, so two (N, k) alike in N or
    # in k meet under one (graph, set) only where one of them is off the rule
    star, ins_ts = StarGraph((1,)), [((2, 3),)]
    assert graph_residue(5, 1, star, ins_ts) == graph_residue(4, 2, star, ins_ts) == [0]
    assert graph_residue(4, 1, star, ins_ts) == [Fraction(1, 8)]


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
    # each distinct job once, one item per part (here one set each), highest
    # degree first, ties in job order; the star of one tail is its tail piece
    assert [(item[2], *item[3]) for item in ran] == [
        jobs[2], jobs[4], (Piece(0, 1, 3), ((2, 3),)), jobs[1], jobs[5]]
    # genus-0 values went to the memo that genus0_constant reads
    assert genus0_constant(4, 1, 2, 1, 0, {2: 6}) == values[4]
    # the star is assembled again from its pieces, not read from the memo
    empty_memo.clear()
    expected = [chain_residue(4, 1, part, [ins_t])[0] if isinstance(part, Genus0Chain)
                else graph_residue(4, 1, part, [ins_t])[0] for part, ins_t in jobs]
    assert values == expected


def _planner_run(monkeypatch, table):
    """Run table() and return ([((N, k, part, sets), values)] of its pool items,
    {"leaves": .., "pruned": ..} summed over its residue chains)."""
    items, stats = [], {}
    serial = vsc.elliptic.parallel_map

    def recording(fn, batch, workers=1):
        batch = list(batch)
        values = serial(fn, batch, workers)
        items.extend(zip(batch, values))
        return values

    def counted(fs, steps, later=None):
        return residue_chain(fs, steps, later, stats=stats)

    with monkeypatch.context() as patch:
        patch.setattr(vsc.elliptic, "parallel_map", recording)
        patch.setattr(vsc.elliptic, "residue_chain", counted)
        patch.setattr(vsc.genus0, "residue_chain", counted)
        table()
    return items, stats


@pytest.mark.parametrize("k", [1, 2])
def test_batched_values_equal_single_set_values(monkeypatch, empty_memo, k):
    # every pool item of gw_table(5, k, 3), genus-0 chains and pieces included: each set
    # rebuilt alone (uncapped, no shared prefix) and walked by its own chain
    items, _ = _planner_run(monkeypatch, lambda: gw_table(5, k, 3))
    monkeypatch.setattr(vsc.genus0, "numerator", uncapped_numerator)
    values = []
    for (N, _, part, sets), batch in items:
        for ins_t, value in zip(sets, batch, strict=True):
            if isinstance(part, Genus0Chain):
                chain = _integrand(N, k, part.degree, part.a, part.b, [ins_t])
            else:
                chain = _part_integrand(N, k, part, [ins_t])
            assert residue_chain(*chain) == [value], (part, ins_t)
            values.append(value)
    assert max(len(sets) for (_, _, _, sets), _ in items) >= 5
    assert any(isinstance(part, Genus0Chain) for (_, _, part, _), _ in items)
    assert any(isinstance(part, Piece) for (_, _, part, _), _ in items)
    assert sum(value != 0 for value in values) > len(values) // 2


def _genus0_chains_against_path_order(monkeypatch, table):
    """The (N, k, chain) of every genus-0 pool item of table(), each of its
    values checked against the chain eliminated in path order z_0, ..., z_d
    from whole numerators."""
    items, _ = _planner_run(monkeypatch, table)
    chains, values = [], []
    for (N, k, part, sets), batch in items:
        if isinstance(part, Genus0Chain):
            d, ends = part.degree, (part.a, part.b)
            assert residue_chain(*ascending_chain(N, k, d, *ends, sets)) == batch, (N, k, part)
            # with both ends at 0 the root of z_{d-1} falls onto 0, so a set
            # walks at most 2^(d-2) branches, half as many as in path order
            stats = {}
            residue_chain(*_integrand(N, k, d, *ends, sets), stats=stats)
            assert sum(stats.values()) <= len(sets) * 2 ** max(d - 2, 0), (N, k, part)
            chains.append((N, k, part))
            values += batch
    assert sum(value != 0 for value in values) > len(values) // 2
    return chains


@pytest.mark.parametrize("table", [
    lambda: gw_table(5, 1, 3), lambda: gw_table(5, 2, 3), lambda: gw_table(4, 1, 4),
    lambda: cy_report(4, 5), lambda: cy_report(5, 5),
], ids=["gw_table(5,1,3)", "gw_table(5,2,3)", "gw_table(4,1,4)", "cy_report(4,5)",
        "cy_report(5,5)"])
def test_genus0_chains_equal_their_path_order_chains(monkeypatch, empty_memo, table):
    # the engine takes both ends at 0 before the interior vertices; path order
    # is a different elimination order, so this is an independent check
    chains = _genus0_chains_against_path_order(monkeypatch, table)
    assert max(chain.degree for _, _, chain in chains) >= 3
    # Calabi-Yau reports read the slot -1 chain of Ltilde_0
    assert any(-1 in (chain.a, chain.b) for _, _, chain in chains) == \
        all(N == k for N, k, _ in chains)


@pytest.mark.extended
@pytest.mark.parametrize("table", [
    lambda: gw_table(5, 1, 4), lambda: mirror_corrections(6, 1, 3),
], ids=["gw_table(5,1,4)", "mirror_corrections(6,1,3)"])
def test_extended_genus0_chains_equal_their_path_order_chains(monkeypatch, empty_memo, table):
    _genus0_chains_against_path_order(monkeypatch, table)


@pytest.mark.parametrize("table", [
    lambda: cy_report(3, 5), lambda: cy_report(4, 5), lambda: cy_report(5, 5),
    lambda: gw_table(5, 1, 3),
], ids=["cy_report(3,5)", "cy_report(4,5)", "cy_report(5,5)", "gw_table(5,1,3)"])
def test_deferred_factors_equal_whole_integrands(monkeypatch, empty_memo, table):
    # an insertion-free part takes each factor just before the first step that
    # needs it; the same layouts with every factor at step 0 give the same values
    items, _ = _planner_run(monkeypatch, table)
    free = [(item, batch) for item, batch in items if item[3] == [()]]
    deferred = 0
    for (N, k, part, sets), _ in free:
        if isinstance(part, Genus0Chain):
            fs, steps, later = _integrand(N, k, part.degree, part.a, part.b, sets)
        else:
            fs, steps, later = _part_integrand(N, k, part, sets)
        deferred += max(later) > 0
    with monkeypatch.context() as patch:
        patch.setattr(vsc.genus0, "integrand", whole_integrand)
        patch.setattr(vsc.elliptic, "integrand", whole_integrand)
        for item, batch in free:
            assert vsc.elliptic._evaluate(item) == batch, item
    # the insertion-free parts of gw_table(5, 1, 3) are its two cluster cores of
    # weight 0; it has no insertion-free genus-0 chain
    values = [value for _, batch in free for value in batch]
    assert free and deferred > len(free) // 2
    assert sum(value != 0 for value in values) > len(values) // 2


@pytest.mark.parametrize("table, parts, jobs, leaves, pruned, residues", [
    (lambda: gw_table(5, 1, 3), 51, 221, 252, 20, 398),
    (lambda: cy_report(4, 5), 28, 28, 68, 14, 139),
    (lambda: gw_table(4, 1, 4), 67, 67, 83, 6, 127),
], ids=["gw_table(5,1,3)", "cy_report(4,5)", "gw_table(4,1,4)"])
def test_one_pool_item_per_part(monkeypatch, empty_memo, table, parts, jobs, leaves, pruned,
                                residues):
    # a part carries all its insertion sets; its chain walks the same branches
    # per set as a chain per set did, and reads every leaf off without a residue
    calls = []
    residue_at = RatExpr.residue_at

    def counted(self, *args):
        calls.append(1)
        return residue_at(self, *args)

    monkeypatch.setattr(RatExpr, "residue_at", counted)
    items, stats = _planner_run(monkeypatch, table)
    assert (len(items), sum(len(item[3]) for item, _ in items)) == (parts, jobs)
    assert stats == {"leaves": leaves, "pruned": pruned}
    assert len(calls) == residues
