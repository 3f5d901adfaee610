"""One repetition of a workload, run in a fresh Python process by run.py.

Prints one JSON line: the monotonic clock reading right after `vsc` was
imported and the host-speed factor measured just then (speed.py), then per
timed call its wall time, that time less the probes run during it, the
same at the reference speed and its outputs (exact rationals as "num/den"
strings), the seconds spent in probes in all, pool workers' included, and
with --trace the aggregated spans.  Pools open with probes in their workers.
The parent checks the outputs; nothing here judges them.

    python3 child.py fano_threefold lib [--warm] [--trace]
    python3 child.py cli_cache cli --cache-dir DIR --threads 2 [--trace]
    python3 child.py <workload> probe
"""

import argparse
import contextlib
import io
import json
import time

import speed

SETUP_PROBES = 10

parser = argparse.ArgumentParser()
parser.add_argument("workload")
parser.add_argument("mode", choices=("lib", "cli", "probe"))
parser.add_argument("--warm", action="store_true",
                    help="repeat the library call in this process")
parser.add_argument("--trace", action="store_true")
parser.add_argument("--cache-dir")
parser.add_argument("--threads", type=int)
args = parser.parse_args()

if args.workload == "cli_cache":
    import vsc.cli
else:
    import vsc
imported = time.monotonic()
vsc.parallel.ProcessPoolExecutor = speed.sampled_pool(vsc.parallel.ProcessPoolExecutor)
setup_factor = speed.factor([speed.probe() for _ in range(SETUP_PROBES)])


def fstr(x):
    return f"{x.numerator}/{x.denominator}"


def fano_threefold():
    rows = vsc.pipeline.gw_table(5, 1, 3, cache=None, workers=1)
    return [[r.d, r.ins.get(2, 0), r.ins.get(3, 0),
             fstr(r.n0), fstr(r.n1), fstr(r.combo), fstr(r.w1)] for r in rows]


def cy_k3_d5():
    report = vsc.calabi_yau.cy_report(4, 5, cache=None, workers=1)
    identities = report.identities()
    l0_closed = report.l0 == vsc.calabi_yau.ltilde_zero_closed(4, 5)
    return {"identities": identities, "l0_closed": l0_closed,
            "l0": [fstr(report.l0.coefficient(d)) for d in range(6)]}


def cli_cache():
    argv = ["gw", "--N", "4", "--k", "1", "--dmax", "4",
            "--threads", str(args.threads), "--cache-dir", args.cache_dir]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vsc.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


WORKLOADS = {"fano_threefold": fano_threefold, "cy_k3_d5": cy_k3_d5,
             "cli_cache": cli_cache}

record = {"imported": imported, "setup_factor": setup_factor, "calls": []}
if args.mode != "probe":
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    work = WORKLOADS[args.workload]
    for _ in range(2 if args.warm else 1):
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            out = work()
            wall = time.perf_counter() - start
        record["calls"].append({"wall": wall, "net": sampler.net(wall),
                                "scaled": sampler.scaled(wall), "out": out})
    if tracer is not None:
        record["trace"] = tracer.report()
record["probe_s"] = speed.total
print(json.dumps(record))
