"""Benchmark of the vsc engines: fixed exact workloads in fresh processes.

    python3 perfbench/run.py --workload fano_threefold --seed 1 --seconds 40 --trace 0

Every repetition spawns fresh Python processes with `src` on the path, so
set-up, imports and in-process memo tables start cold each time.  Outputs are
checked exactly (checks.py); a repetition whose checks fail counts in
`failed`, and its timings are flagged and left out of the medians.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the repetitions that fit in --seconds.  Every time is scaled to a fixed
reference host speed, measured by probes that run alongside it (speed.py),
because the host's own speed drifts by more than the bounds; the raw wall
times are printed too.  --trace 1 runs untraced repetitions for half the
time, then one traced repetition (tracer.py), and reports the per-layer
metrics, the tracing overhead and, for cli_cache, the speed-up over a
--threads 1 reference run.

The workloads have no random inputs: --seed is recorded and changes nothing.
Human-readable lines come first; the last line of stdout is the JSON result.
--record FILE also writes the run record (sha, Python, nproc, seed, raw
samples).  Everything the run writes stays under .perfbench-work/ in the
checkout and per-run directories are removed before it exits.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ next to the benchmark
import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("fano_threefold", "cy_k3_d5", "cli_cache")
SETUP_PROBES = 3       # import-only processes at the start of a run
PROBES_PER_REP = 2     # and after each repetition, so setup_s samples the whole run
MIN_REPS = 2           # a run always makes this many timed repetitions
HARD_LIMIT_S = 150     # never start a child after this; the run must end in 180 s
CLI_THREADS = 2

# Layers each workload must reach in the traced run (the self-check).  On
# cli_cache the kernel runs in pool workers, so only parent-side layers count.
EXPECTED_LAYERS = {
    "fano_threefold": ["poly", "ratfun", "chain", "elliptic", "genus0", "series",
                       "pipeline", "parallel"],
    "cy_k3_d5": ["poly", "ratfun", "chain", "elliptic", "genus0", "series",
                 "calabi_yau", "parallel"],
    "cli_cache": ["cli", "pipeline", "genus0", "cache", "parallel"],
}
FAMILIES = ("star", "loop", "cluster", "point")
DEGREES = range(1, 6)


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run: spawns children, keeps raw samples and check tallies."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.start = time.monotonic()
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        # Children import from this checkout's src only and see no cache
        # setting.  Bytecode is always cached, under WORK rather than src, so
        # setup_s measures a normal warm import whatever the caller's
        # PYTHONDONTWRITEBYTECODE says.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "VSC_CACHE", "PYTHONSTARTUP",
                                 "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.samples = {"setup_s": []}
        self.reps = []          # per repetition: {"ok": bool, metric: value}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.overrun = False

    def elapsed(self):
        return time.monotonic() - self.start

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, mode, *extra):
        """Run child.py once; return (record, cpu seconds outside the probes).

        Raises ChildFailed.
        """
        left = HARD_LIMIT_S + 20 - self.elapsed()
        if left <= 0:
            self.overrun = True
            raise ChildFailed("out of time")
        argv = [sys.executable, str(BENCH / "child.py"), self.workload, mode, *extra]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env,
                                cwd=self.tmp, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.overrun = True
            raise ChildFailed(f"{mode} child timed out") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        try:
            record = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            raise ChildFailed(f"{mode} child printed no record") from None
        self.samples["setup_s"].append((record["imported"] - spawned) * record["setup_factor"])
        return record, cpu - record["probe_s"]

    def tally(self, check_fn, *outputs):
        """Count one group of checks; return True when all passed."""
        try:
            results = check_fn(*outputs)
        except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError):
            results = [(f"{check_fn.__name__} raised", False)] * len(check_fn(*[None] * len(outputs)))
        self.attempted += len(results)
        bad = [name for name, ok in results if not ok]
        self.failed += len(bad)
        self.failures.extend(bad)
        return not bad

    def cache_dir(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.tmp)

    # -- one repetition of each kind ------------------------------------------

    def lib_rep(self, warm, trace=False):
        """Library workloads: one process, the call once (or twice with warm)."""
        check_fn = getattr(checks, self.workload)
        calls = 2 if warm else 1
        extra = (["--warm"] if warm else []) + (["--trace"] if trace else [])
        try:
            record, cpu = self.spawn("lib", *extra)
        except ChildFailed as exc:
            self.failures.append(str(exc))
            for _ in range(calls):
                self.tally(check_fn, None)
            return {"ok": False}
        calls = record["calls"]
        ok = all([self.tally(check_fn, call["out"]) for call in calls])
        rep = {"ok": ok, "wall_s": calls[0]["scaled"], "wall_raw_s": calls[0]["wall"],
               "cpu_s": cpu * statistics.mean(call["scaled"] / call["net"] for call in calls)}
        if warm:
            rep["warm_s"] = calls[1]["scaled"]
            rep["warm_raw_s"] = calls[1]["wall"]
        if trace:
            rep["traces"] = [record["trace"]]
        return rep

    def cli_rep(self, warm, trace=False, threads=CLI_THREADS):
        """cli_cache: a cold process on a fresh cache dir, then a warm one."""
        cache = self.cache_dir()
        extra = ["--cache-dir", cache, "--threads", str(threads)]
        extra += ["--trace"] if trace else []
        rep = {"ok": False}
        outs = [None, None]
        try:
            for i in range(2 if warm else 1):
                record, cpu = self.spawn("cli", *extra)
                call = record["calls"][0]
                outs[i] = call["out"]
                key = "wall" if i == 0 else "warm"
                rep[f"{key}_s"] = call["scaled"]
                rep[f"{key}_raw_s"] = call["wall"]
                rep["cpu_s"] = rep.get("cpu_s", 0.0) + cpu * call["scaled"] / call["net"]
                rep.setdefault("traces", []).append(record.get("trace"))
                if i == 0:
                    rep["cache_bytes"] = sum(p.stat().st_size for p in Path(cache).iterdir())
        except ChildFailed as exc:
            self.failures.append(str(exc))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        rep["out"] = outs[0]
        ok = self.tally(checks.surface_table, outs[0])
        if warm:
            ok = self.tally(checks.same_stdout, "warm stdout == cold stdout",
                            outs[0], outs[1]) and ok
        rep["ok"] = ok and "wall_s" in rep
        return rep

    def rep(self, warm=True, trace=False):
        if self.workload == "cli_cache":
            return self.cli_rep(warm, trace)
        return self.lib_rep(warm, trace)

    def probe(self):
        try:
            self.spawn("probe")
        except ChildFailed as exc:
            self.failures.append(str(exc))
            self.attempted += 1
            self.failed += 1

    def loop(self, seconds, warm):
        """Timed repetitions until the next one would end after `seconds`."""
        durations = []
        while True:
            spent = self.elapsed()
            if spent > HARD_LIMIT_S or self.overrun:
                break
            if len(durations) >= MIN_REPS and spent + max(durations) > seconds:
                break
            began = time.monotonic()
            self.reps.append(self.rep(warm))
            for _ in range(PROBES_PER_REP):
                self.probe()
            durations.append(time.monotonic() - began)


# -- statistics and metrics ---------------------------------------------------


def summary(values):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    high = None
    if n >= 11:
        high = (100.0 * (n - 10) / n, sorted(values)[n - 11])
    return statistics.median(values), high, n


def timed(run, key):
    """Samples of one timing: clean repetitions only, unless none is clean."""
    clean = [r[key] for r in run.reps if r["ok"] and key in r]
    return clean or [r[key] for r in run.reps if key in r]


def end_to_end(run):
    samples = {"setup_s": run.samples["setup_s"]}
    for key in ("wall_s", "warm_s", "cpu_s", "wall_raw_s", "warm_raw_s"):
        samples[key] = timed(run, key)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {key: statistics.median(v) for key, v in samples.items() if v}
    values["peak_rss_mb"] = peak_kib / 1024.0
    return values, samples


class Spans:
    """Merged span edges of the traced processes: name -> calls, incl, self."""

    def __init__(self, traces):
        self.edges = {}
        self.counters = {}
        self.maxima = {}
        for trace in traces:
            if not trace:
                continue
            for parent, name, calls, incl, own in trace["edges"]:
                edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += incl
                edge[2] += own
            for key, value in trace["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            for key, value in trace["maxima"].items():
                self.maxima[key] = max(self.maxima.get(key, 0), value)

    def total(self, field, name, parent=None):
        index = {"calls": 0, "incl": 1, "self": 2}[field]
        return sum(v[index] for (p, n), v in self.edges.items()
                   if (n == name or n.startswith(name + "@"))
                   and (parent is None or p == parent))

    def layers(self):
        return {n.split(".")[0] for (_, n), v in self.edges.items() if v[0]}

    def count(self, key):
        return self.counters.get(key, 0)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(s):
    """Per-layer metrics from merged spans; 0 where a layer did not run."""
    m = {}
    calls = lambda name: s.total("calls", name)
    incl = lambda name: s.total("incl", name)
    own = lambda name: s.total("self", name)

    m["poly.mul_calls"] = calls("poly.mul")
    m["poly.mul_term_pairs"] = s.count("poly.mul_term_pairs")
    m["poly.mul_self_s"] = own("poly.mul")
    m["poly.max_terms"] = s.maxima.get("poly.max_terms", 0)
    m["poly.shift_eps_self_s"] = own("poly.shift_eps")
    m["poly.divide_calls"] = calls("poly.divide")
    m["poly.divide_self_s"] = own("poly.divide")
    m["poly.divide_useful_ratio"] = ratio(s.count("poly.divide_exact"), calls("poly.divide"))

    m["ratfun.residue_at_calls"] = calls("ratfun.residue_at")
    m["ratfun.residue_at_self_s"] = own("ratfun.residue_at")
    m["ratfun.reduce_calls"] = calls("ratfun.reduce")
    m["ratfun.reduce_s"] = incl("ratfun.reduce")

    leaves, pruned = s.count("chain.leaves"), s.count("chain.pruned")
    m["chain.residue_chain_calls"] = calls("chain.residue_chain")
    m["chain.residue_chain_s"] = incl("chain.residue_chain")
    m["chain.leaves"] = leaves
    m["chain.pruned"] = pruned
    m["chain.pruned_ratio"] = ratio(pruned, pruned + leaves)

    m["elliptic.elliptic_constant_calls"] = calls("elliptic.elliptic_constant")
    for family in FAMILIES:
        m[f"elliptic.graph_residue_calls.{family}"] = sum(
            calls(f"elliptic.graph_residue.{family}.d{d}") for d in DEGREES)
        m[f"elliptic.graph_residue_s.{family}"] = sum(
            incl(f"elliptic.graph_residue.{family}.d{d}") for d in DEGREES)
    for d in DEGREES:
        m[f"elliptic.graph_residue_s.d{d}"] = sum(
            incl(f"elliptic.graph_residue.{family}.d{d}") for family in FAMILIES)
    m["elliptic.integrand_s"] = incl("elliptic.graph_residue") - incl(
        "chain.residue_chain@elliptic")

    m["genus0.genus0_constant_calls"] = calls("genus0.genus0_constant")
    m["genus0.genus0_constant_s"] = incl("genus0.genus0_constant")

    m["series.mul_calls"] = calls("series.mul")
    for op in ("exp", "log", "inverse", "substitute"):
        m[f"series.{op}_s"] = incl(f"series.{op}")

    for stage in ("mirror_corrections", "invert_corrections", "genus1_b",
                  "genus0_pair_series"):
        m[f"pipeline.{stage}_s"] = incl(f"pipeline.{stage}")
    m["pipeline.compose_s"] = s.total("incl", "series.substitute", parent="pipeline.gw_table")

    for family in FAMILIES:
        m[f"calabi_yau.family_series_s.{family}"] = incl(f"calabi_yau.family_series.{family}")
    m["calabi_yau.ltilde_s"] = incl("calabi_yau.ltilde")

    hits, gets = s.count("cache.hits"), calls("cache.get")
    m["cache.get_calls"] = gets
    m["cache.hits"] = hits
    m["cache.misses"] = s.count("cache.misses")
    m["cache.put_calls"] = calls("cache.put")
    m["cache.get_s"] = incl("cache.get")
    m["cache.put_s"] = incl("cache.put")
    m["cache.hit_ratio"] = ratio(hits, gets)

    m["parallel.map_calls"] = calls("parallel.map")
    m["parallel.pool_starts"] = calls("parallel.pool")
    m["parallel.items"] = s.count("parallel.items")
    m["parallel.map_s"] = incl("parallel.map")
    return m


def traced_run(run):
    """Untraced repetitions for half the time, one traced, then the references."""
    run.loop(run.seconds / 2, warm=False)
    untraced = statistics.median(timed(run, "wall_s")) if timed(run, "wall_s") else 0.0
    traced = run.rep(warm=run.workload == "cli_cache", trace=True)
    spans = Spans(traced.get("traces", []))
    metrics = per_layer(spans)
    metrics["cache.bytes"] = traced.get("cache_bytes", 0)
    metrics["trace.overhead_s"] = traced.get("wall_s", 0.0) - untraced
    metrics["parallel.speedup"] = 0.0
    samples = {"wall_s": timed(run, "wall_s"), "traced_wall_s": [traced.get("wall_s")]}
    if run.workload == "cli_cache":
        reference = run.cli_rep(warm=False, threads=1)
        run.tally(checks.same_stdout, "--threads 1 stdout == --threads 2 stdout",
                  traced.get("out"), reference.get("out"))
        if "wall_s" in reference and untraced:
            metrics["parallel.speedup"] = reference["wall_s"] / untraced
            samples["threads1_wall_s"] = [reference["wall_s"]]
    fired = spans.layers()
    run.tally(lambda *_: [(f"layer {layer} fired", layer in fired)
                          for layer in EXPECTED_LAYERS[run.workload]], None)
    return metrics, samples


# -- entry point --------------------------------------------------------------

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads have no random inputs")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="also write the run record here")
    args = parser.parse_args()

    if not (ROOT / "src" / "vsc" / "__init__.py").is_file():
        print(f"error: no vsc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_e2e, spec_layers = load_spec()

    run = Run(args.workload, args.seconds)
    try:
        for _ in range(SETUP_PROBES):
            run.probe()
        if args.trace:
            values, samples = traced_run(run)
            spec = spec_layers
        else:
            run.loop(args.seconds, warm=True)
            values, samples = end_to_end(run)
            spec = spec_e2e
    finally:
        run.close()

    clean = sum(r["ok"] for r in run.reps)
    print(f"workload {args.workload}  seed {args.seed} (no random inputs)  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"repetitions {len(run.reps)} ({clean} clean)  {run.elapsed():.1f} s")
    print(f"ops_failed {ratio(run.failed, run.attempted):g} ratio "
          f"({run.failed} of {run.attempted} checks)")
    for name in sorted(set(run.failures)):
        print(f"  FAILED: {name}")
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": unit}
        line = f"{name:44s} {values[name]:>14.6g} {unit}"
        if name in samples and samples[name]:
            median, high, n = summary(samples[name])
            tail = f"p{high[0]:.0f} {high[1]:.6g}" if high else "p-high n/a (<11 samples)"
            line += f"   median of n={n}, {tail}"
        print(line)
    for name, values_ in samples.items():
        print(f"samples {name}: {json.dumps([round(v, 6) for v in values_ if v is not None])}")

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.record:
        record = {"sha": git_sha(), "python": platform.python_version(),
                  "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "repetitions": [{k: v for k, v in r.items() if k not in ("traces", "out")}
                                  for r in run.reps],
                  "samples": samples, "result": result}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
