"""ramansim benchmark: one closed-loop client calling `ramansim.cli.run(argv)`.

    python3 bench/run.py --workload gate-open --seed 1 --seconds 30 --trace 0

Builds a seeded request list for the workload, runs it in this process one
request after another, checks every error cell against the step-halved
values in bench/reference.json and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same list runs once
untraced and once traced and the metrics are the per-layer ones.  Results,
the environment record and (traced) spans are also written to bench/out/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from envinfo import environment  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

TAIL_BEYOND = 10  # requests that must lie beyond the reported tail
SETUP_REPEATS = 15

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("points_per_s", "1/s"), ("request_p50_s", "s"),
    ("request_tail_s", "s"), ("ok_frac", "1"), ("peak_rss_mb", "MB"),
)


def tail_latency(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND requests
    above it; None when there are not more than TAIL_BEYOND requests."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return sorted(latencies)[k], 100.0 * (k + 1) / n


def measure_setup():
    """Median seconds from spawning an interpreter to `import ramansim.cli`
    returning, after one unmeasured spawn that fills the bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "RAMAN_SIM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("import ramansim.cli, time; t = time.monotonic(); "
            "print(t); print(ramansim.cli.__file__)")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout.split("\n")
        if not os.path.abspath(out[1]).startswith(SRC + os.sep):
            raise RuntimeError("child imported ramansim from %s" % out[1])
        if i:
            times.append(float(out[0]) - t0)
    return statistics.median(times)


def run_request(cli, req, reference, tracer=None, request_id=None):
    """Run one request; returns (latency s, ok, values checked, max dev, problems)."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.request = request_id
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(list(req.argv))
    except Exception:  # a crash is a failed request, not a failed benchmark
        traceback.print_exc()
        rc = None
    latency = time.perf_counter() - t0
    if rc != 0:
        return latency, False, 0, 0.0, ["exit code %r" % rc]
    try:
        cells = wl.output_cells(req, buf.getvalue())
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return latency, False, 0, 0.0, ["unparseable output: %r" % exc]
    n, dev, problems = wl.check_cells(req, cells, reference)
    return latency, not problems, n, dev, problems


def run_pass(cli, reqs, reference, tracer=None):
    """Closed loop over the list; returns a dict of what the pass measured."""
    lat, problems = [], []
    points = checked = failed = 0
    max_dev = 0.0
    cpu0, t0 = time.process_time(), time.perf_counter()
    for i, req in enumerate(reqs):
        latency, ok, n, dev, bad = run_request(cli, req, reference, tracer, i)
        lat.append(latency)
        checked += n
        max_dev = max(max_dev, dev)
        if ok:
            points += req.points
        else:
            failed += 1
            problems.extend("request %d (%s): %s" % (i, " ".join(req.argv), p)
                            for p in bad)
    wall = time.perf_counter() - t0
    return {"latencies": lat, "wall": wall, "cpu": time.process_time() - cpu0,
            "points": points, "failed": failed, "checked": checked,
            "max_dev": max_dev, "problems": problems}


def end_to_end(res, setup_s):
    tail = tail_latency(res["latencies"])
    n = len(res["latencies"])
    values = {
        "setup_s": setup_s,
        "points_per_s": res["points"] / res["wall"],
        "request_p50_s": statistics.median(res["latencies"]),
        "request_tail_s": tail[0],  # MIN_ROUNDS keeps a tail in every run
        "ok_frac": (n - res["failed"]) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, tail


def _import_cli():
    sys.path.insert(0, SRC)
    import ramansim.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported ramansim from %s, not %s" % (cli.__file__, SRC))
    return cli


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    ref_path = os.path.join(HERE, "reference.json")
    for need in (os.path.join(SRC, "ramansim", "cli.py"), ref_path):
        if not os.path.isfile(need):
            print("error: %s not found; run from a ramansim checkout" % need,
                  file=sys.stderr)
            return 2
    # the baseline is single-threaded: the thread pool stays off
    env_before = dict(os.environ)
    os.environ.pop("RAMAN_SIM_THREADS", None)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        setup_s = None if args.trace else measure_setup()
        cli = _import_cli()
        with open(ref_path) as fh:
            reference = json.load(fh)["values"]
        rounds = wl.rounds_for(args.workload, args.seconds)
        reqs = wl.build_requests(args.workload, args.seed, rounds, work)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(wl.warmup_request(args.workload, work))

        plain = run_pass(cli, reqs, reference)
        passes = [plain]
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "rounds": rounds, "requests": len(reqs),
                  "environment": environment(ROOT, env_before)}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, reqs, reference, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            values = layer_metrics(tracer, traced["latencies"])
            values.update({
                "proc.cpu_util": plain["cpu"] / plain["wall"],
                "check.max_dev": max(p["max_dev"] for p in passes),
                "check.values": sum(p["checked"] for p in passes),
                "trace.overhead_frac": traced["wall"] / plain["wall"] - 1.0,
            })
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in PER_LAYER}
            record["absent"] = tracer.absent
            spans_path = os.path.join(
                OUT, "spans-%s-s%d.jsonl" % (args.workload, args.seed))
            with open(spans_path, "w") as fh:
                for name, start, end, parent, rid in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": rid}) + "\n")
        else:
            values, tail = end_to_end(plain, setup_s)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            record["tail_percentile"] = tail[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [p for res in passes for p in res["problems"]]
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    record.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                   "problems": problems[:200],
                   "requests_run": [{"argv": r.argv, "latency_s": lat}
                                    for r, lat in zip(reqs, plain["latencies"])]})
    with open(os.path.join(OUT, "result-%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print("# environment %s" % json.dumps(record["environment"], sort_keys=True))
    print("# %s seed %d: %d requests in %d rounds" % (
        args.workload, args.seed, len(reqs), rounds))
    if record.get("absent"):
        print("# absent (reported as 0): %s" % ", ".join(record["absent"]))
    for name, m in metrics.items():
        note = ""
        if name == "request_tail_s" and record.get("tail_percentile"):
            note = "  (p%.1f of %d requests)" % (record["tail_percentile"], len(reqs))
        print("%-58s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
