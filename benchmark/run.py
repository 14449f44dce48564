#!/usr/bin/env python3
"""Repository benchmark for the HFuse reproduction.

Issues `hfusec --search` requests as separate processes from this one
process (closed loop, one client, one request in flight), checks every
answer against golden.json, and prints the end-to-end metrics (untraced
runs) or the per-layer metrics (traced runs) by name with their units.

  python3 benchmark/run.py --seed N                 # all workloads, both modes
  python3 benchmark/run.py --workload pairs-cold --seed 3 --seconds 10 --trace 0
  python3 benchmark/run.py --smoke                  # two requests per workload

The build (benchmark/CMakeLists.txt) lands in benchmark/build and every
output in benchmark/out. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See README.md for the
workloads, the metric catalog and how to compare two commits.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(BENCH, "build")
OUT = os.path.join(BENCH, "out")
HFUSEC = os.path.join(BUILD, "hfuse", "hfusec")
LAYERS = os.path.join(BUILD, "hfuse_layers")

# The paper's 16 pairs (Figure 9) and the N-way triples: every 3-subset of
# {batchnorm, hist, im2col, maxpool} plus the crypto triple.
PAIRS = [
    "batchnorm+upsample", "batchnorm+hist", "batchnorm+im2col",
    "batchnorm+maxpool", "hist+im2col", "hist+maxpool", "hist+upsample",
    "im2col+maxpool", "im2col+upsample", "maxpool+upsample",
    "blake2b+ethash", "blake256+ethash", "ethash+sha256", "blake256+blake2b",
    "blake256+sha256", "blake2b+sha256",
]
TRIPLES = [
    "batchnorm+hist+im2col", "batchnorm+hist+maxpool",
    "batchnorm+im2col+maxpool", "hist+im2col+maxpool",
    "blake256+sha256+ethash",
]
# One DL and one crypto request each, for --smoke.
SMOKE = {"pairs": ["hist+maxpool", "ethash+sha256"],
         "triples": ["hist+im2col+maxpool", "blake256+sha256+ethash"]}

# Every request: --quick scale on the default GTX 1080 Ti, two search
# workers, so at most three busy threads per request.
SEARCH_JOBS = 2
COMMON_FLAGS = ["--quick", "--search-jobs", str(SEARCH_JOBS)]

# store: "fresh" = a new empty --cache-dir per request; "populated" = a
# copy of a store filled by one untimed pass of the same requests with
# `populate` flags; None = no --cache-dir.
WORKLOADS = {
    "pairs-cold": {"requests": "pairs", "flags": [], "store": "fresh"},
    "pairs-warm": {"requests": "pairs", "flags": [], "store": "populated",
                   "populate": []},
    "pairs-replay": {"requests": "pairs", "flags": ["--search-budget=off"],
                     "store": "populated",
                     "populate": ["--search-budget=off"]},
    "nway-cold": {"requests": "triples", "flags": [], "store": None},
}

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPS = 3
# The warm-up request of every set-up: the cheapest paper pair.
WARMUP_REQUEST = "hist+maxpool"
REQUEST_TIMEOUT_S = 60
# No new pass starts after this much measuring, whatever --seconds says.
MEASURE_CAP_S = 100

END_TO_END_UNITS = {"wall_s": "s", "request_p50_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class Fatal(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build ---

def build():
    os.makedirs(OUT, exist_ok=True)
    build_log = os.path.join(OUT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Written at the end of a successful configure.
    if not os.path.exists(os.path.join(BUILD, "cmake_install.cmake")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "hfusec", "hfuse_layers"])
    with open(build_log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                raise Fatal("build failed: %s (see %s)" % (" ".join(cmd), build_log))


def binary_key():
    h = hashlib.sha256()
    with open(HFUSEC, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


# ------------------------------------------------------------- requests ---

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def spawn(argv, log_prefix):
    """Runs one process to completion; returns (exit code, wall s, rusage).
    stdout/stderr go to log_prefix + .out/.err."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return os.waitstatus_to_exitcode(status), wall, ru


def parse_best(stdout_text):
    """(dims, bound, cycles) of the '<-- best' row of hfusec's table."""
    for line in stdout_text.splitlines():
        if line.endswith("<-- best"):
            tok = line.split()
            if "/" in tok[0]:  # N-way row: dims bound cycles ...
                return tok[0], int(tok[1]), int(tok[2])
            return "%s/%s" % (tok[0], tok[1]), int(tok[2]), int(tok[3])
    return None


class Client:
    """Issues requests of one workload and checks their answers."""

    def __init__(self, name, spec, golden, workdir):
        self.name = name
        self.spec = spec
        self.golden = golden
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def issue(self, request, flags, cache_dir, log_prefix, extra=()):
        """One request; returns (ok, wall s, rusage)."""
        self.attempted += 1
        argv = [HFUSEC, "--search", request] + COMMON_FLAGS + list(flags)
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        try:
            rc, wall, ru = spawn(argv + list(extra), log_prefix)
        except _Timeout:
            return self.fail(request, "timed out"), REQUEST_TIMEOUT_S, None
        if rc != 0:
            return self.fail(request, "exit code %d" % rc), wall, ru
        with open(log_prefix + ".out") as f:
            best = parse_best(f.read())
        g = self.golden[request]
        if best != (g["dims"], g["bound"], g["cycles"]):
            return self.fail(request, "best %s != golden %s" % (best, g)), wall, ru
        return True, wall, ru

    def fail(self, request, why):
        self.failed += 1
        self.errors.append("%s: %s" % (request, why))
        log("FAILED %s %s: %s" % (self.name, request, why))
        return False


# ---------------------------------------------------------------- stores ---

def populated_store(client, requests):
    """Directory of a store filled by one untimed pass of `requests` with
    the workload's populate flags. Built once per hfusec binary and request
    list, then reused by every run in this checkout: the fill is a
    pairs-cold pass (or an exhaustive one), too long to repeat per run."""
    spec = client.spec
    key = hashlib.sha256(json.dumps(
        [binary_key(), spec["populate"], requests]).encode()).hexdigest()[:16]
    final = os.path.join(OUT, "stores", key)
    if os.path.isdir(final):
        return final
    tmp = "%s.tmp%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    logs = os.path.join(client.workdir, "populate")
    os.makedirs(logs, exist_ok=True)
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        ok, _, _ = client.issue(req, spec["populate"], tmp,
                                os.path.join(logs, str(i)))
        if not ok:
            raise Fatal("store populate failed: %s" % client.errors[-1])
    log("%s: populated store %s in %.1f s" % (client.name, key,
                                               time.perf_counter() - t0))
    os.rename(tmp, final)
    return final


def prepare(client, pristine, pass_dir):
    """Materializes a pass's starting state under pass_dir; returns a
    function giving request i its --cache-dir (None = no store)."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    if client.spec["store"] == "populated":
        store = os.path.join(pass_dir, "store")
        shutil.copytree(pristine, store)
        return lambda i: store
    if client.spec["store"] == "fresh":
        return lambda i: os.path.join(pass_dir, "store%d" % i)
    return lambda i: None


# ---------------------------------------------------------------- passes ---

def run_pass(client, requests, pristine, pass_dir, order_seed, extra=None):
    """One pass over `requests` in a seeded order. `extra(i)` gives extra
    argv per request (the traced pass). Returns per-request records and
    the pass wall time."""
    cache_dir = prepare(client, pristine, pass_dir)
    order = list(requests)
    random.Random(order_seed).shuffle(order)
    records = []
    t0 = time.perf_counter()
    for i, req in enumerate(order):
        prefix = os.path.join(pass_dir, "req%d" % i)
        ok, wall, ru = client.issue(req, client.spec["flags"], cache_dir(i),
                                    prefix, extra(i) if extra else ())
        records.append({"ok": ok, "wall": wall,
                        "cpu": ru.ru_utime + ru.ru_stime if ru else 0.0,
                        "rss_kb": ru.ru_maxrss if ru else 0,
                        "prefix": prefix})
    return records, time.perf_counter() - t0


def setup_once(client, pristine, setup_dir):
    t0 = time.perf_counter()
    cache_dir = prepare(client, pristine, setup_dir)
    client.issue(WARMUP_REQUEST, client.spec["flags"], cache_dir(0),
                 os.path.join(setup_dir, "warmup"))
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(client, requests, pristine, seed, seconds):
    setups = [setup_once(client, pristine, os.path.join(client.workdir, "setup"))
              for _ in range(SETUP_REPS)]
    passes = []
    t0 = time.perf_counter()
    while True:
        pass_dir = os.path.join(client.workdir, "pass")
        records, wall = run_pass(client, requests, pristine, pass_dir,
                                 "%d:%s:%d" % (seed, client.name, len(passes)))
        passes.append((records, wall))
        elapsed = time.perf_counter() - t0
        mean_pass = elapsed / len(passes)
        if elapsed + 0.5 * mean_pass >= seconds or elapsed >= MEASURE_CAP_S:
            break
    walls = [w for _, w in passes]
    reqs_ms = [r["wall"] * 1e3 for recs, _ in passes for r in recs]
    cpus = [sum(r["cpu"] for r in recs) for recs, _ in passes]
    values = {
        "wall_s": statistics.median(walls),
        "request_p50_ms": statistics.median(reqs_ms),
        "peak_rss_mb": max(r["rss_kb"] for recs, _ in passes for r in recs) / 1024,
        "setup_s": statistics.median(setups),
    }
    # cpu_s and request_p90_ms are reported, not gated (see README): on
    # pairs-replay, host drift moves them beyond any allowed bound.
    tail = len(reqs_ms) - int(0.9 * len(reqs_ms))
    detail = {
        "passes": len(passes),
        "requests": len(reqs_ms),
        "wall_s_quartiles": quartiles(walls),
        "cpu_s": statistics.median(cpus),
        "request_p90_ms": statistics.quantiles(reqs_ms, n=10, method="inclusive")[8],
        "request_p90_tail_samples": tail,
        "request_p90_tail_ok": tail >= 10,
        "setup_s_samples": setups,
    }
    return values, detail


# ---------------------------------------------------------- trace pass ---

def span_tree(events):
    """Chrome trace B/E events -> spans with self time, matched per thread."""
    spans, stacks = [], {}
    for e in sorted(events, key=lambda e: (e["tid"], e["ts"])):
        if e["ph"] == "B":
            span = {"cat": e["cat"], "name": e["name"], "tid": e["tid"],
                    "start": e["ts"], "args": e.get("args", {}),
                    "children": 0.0}
            stacks.setdefault(e["tid"], []).append(span)
        elif e["ph"] == "E" and stacks.get(e["tid"]):
            span = stacks[e["tid"]].pop()
            span["dur"] = e["ts"] - span["start"]
            span["self"] = span["dur"] - span["children"]
            if stacks[e["tid"]]:
                stacks[e["tid"]][-1]["children"] += span["dur"]
            spans.append(span)
    return spans


def harness_spans(path):
    with open(path) as f:
        spans = json.load(f)
    child = {}
    for s in spans:
        s["dur"] = s["end_us"] - s["start_us"]
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child.get(s["id"], 0.0)
    return spans


def per_layer(client, requests, pristine, seed):
    """One untraced pass, one traced pass (hfusec --trace/--metrics), and
    one layer replay of every request; returns the per-layer metrics."""
    base = os.path.join(client.workdir, "trace")
    _, plain_wall = run_pass(client, requests, pristine, base + "-plain",
                             "%d:%s:plain" % (seed, client.name))
    tdir = base + "-traced"

    def telemetry_flags(i):
        prefix = os.path.join(tdir, "req%d" % i)
        return ["--trace", prefix + ".trace.json",
                "--metrics", prefix + ".metrics.json"]

    records, traced_wall = run_pass(client, requests, pristine, tdir,
                                    "%d:%s:traced" % (seed, client.name),
                                    telemetry_flags)
    # Traced request wall, attributed along the request's main thread:
    # outside the search span, then the self time of every span inside it
    # (the search itself, its phases, and their main-thread children).
    counters = {}
    attributed = {"driver.outside_search": 0.0}
    busy_us = sim_phase_us = 0.0
    for rec in records:
        if not rec["ok"]:
            continue
        with open(rec["prefix"] + ".metrics.json") as f:
            for k, v in json.load(f)["counters"].items():
                counters[k] = counters.get(k, 0) + v
        with open(rec["prefix"] + ".trace.json") as f:
            spans = span_tree(json.load(f)["traceEvents"])
        searches = [s for s in spans if s["cat"] == "search"]
        outside_us = rec["wall"] * 1e6 - sum(s["dur"] for s in searches)
        attributed["driver.outside_search"] += outside_us
        for s in spans:
            if any(s["tid"] == q["tid"] and q["start"] <= s["start"] and
                   s["start"] + s["dur"] <= q["start"] + q["dur"]
                   for q in searches):
                key = "phase." + s["name"] if s["cat"] == "phase" else s["cat"]
                attributed[key] = attributed.get(key, 0.0) + s["self"]
            if s["cat"] == "simulate":
                busy_us += s["dur"]
            elif s["cat"] == "phase" and s["name"] == "simulate":
                sim_phase_us += s["dur"] * SEARCH_JOBS

    # The layer replay, at each request's golden Best.
    ldir = os.path.join(client.workdir, "layers")
    shutil.rmtree(ldir, ignore_errors=True)
    os.makedirs(ldir)
    trace_path = os.path.join(ldir, "layers.trace.json")
    args = [LAYERS, "--trace", trace_path, "--store-dir",
            os.path.join(ldir, "store")]
    for req in requests:
        g = client.golden[req]
        args.append("%s:%s:%d" % (req, g["dims"], g["bound"]))
    client.attempted += len(requests)
    try:
        rc, _, _ = spawn(args, os.path.join(ldir, "replay"))
    except _Timeout:
        rc = -1
    with open(os.path.join(ldir, "replay.out")) as f:
        replies = [json.loads(line) for line in f if line.strip()]
    for rep in replies:
        if not (rep["ok"] and rep["verified"]):
            client.fail(rep["request"], "layer replay: " + rep["error"])
    if rc != 0 and not client.failed:
        raise Fatal("layer replay failed with exit code %d" % rc)
    hs = harness_spans(trace_path)

    def total(name):
        return sum(s["self"] for s in hs if s["name"] == name)

    def arg_sum(name, key):
        return sum(s["args"].get(key, 0) for s in hs if s["name"] == name)

    def runs(full):
        return [s for s in hs if s["name"] == "gpusim.run" and s["args"]["full"] == full]

    def minstr(full):
        rs = runs(full)
        return sum(s["args"]["issued"] for s in rs) / sum(s["dur"] for s in rs)

    front_s = (total("cudalang.parse") + total("cudalang.sema")) / 1e6
    hits, misses = counters.get("compile.disk_hits", 0), counters.get("compile.disk_misses", 0)
    sim_insts = counters.get("search.sim_insts", 0)
    m = {
        "cudalang.parse_ms": (total("cudalang.parse") / 1e3, "ms"),
        "cudalang.sema_ms": (total("cudalang.sema") / 1e3, "ms"),
        "cudalang.source_kb_per_s": (arg_sum("cudalang.parse", "bytes") / 1024 / front_s, "KB/s"),
        "transform.preprocess_ms": (total("transform.preprocess") / 1e3, "ms"),
        "transform.fuse_ms": (total("transform.fuse") / 1e3, "ms"),
        "transform.fuse_calls": (sum(1 for s in hs if s["name"] == "transform.fuse"), "count"),
        "codegen.lower_ms": (total("codegen.lower") / 1e3, "ms"),
        "codegen.ir_insts": (arg_sum("codegen.lower", "ir_insts"), "count"),
        "ir.regalloc_ms": (total("ir.regalloc") / 1e3, "ms"),
        "ir.spilled_regs": (arg_sum("ir.regalloc", "spilled"), "count"),
        "gpusim.minstr_per_s": (minstr(0), "Minst/s"),
        "gpusim.minstr_per_s_full": (minstr(1), "Minst/s"),
        "gpusim.run_ms": (total("gpusim.run") / 1e3, "ms"),
        "gpusim.issued_insts": (sum(s["args"]["issued"] for s in runs(0)), "count"),
        "gpusim.cycles": (sum(s["args"]["cycles"] for s in runs(0)), "count"),
        "store.put_ms": (total("store.put") / 1e3, "ms"),
        "store.get_ms": (total("store.get") / 1e3, "ms"),
        "store.hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "fraction"),
        "search.candidates": (counters.get("search.candidates", 0), "count"),
        "search.simulated": (counters.get("search.simulations", 0), "count"),
        "search.pruned": (counters.get("search.pruned", 0), "count"),
        "search.abandoned": (counters.get("search.abandoned", 0), "count"),
        "search.sim_insts": (sim_insts, "count"),
        "search.wasted_insts_frac": (counters.get("search.abandoned_insts", 0) / sim_insts
                                     if sim_insts else 0.0, "fraction"),
        "search.worker_busy_frac": (busy_us / sim_phase_us if sim_phase_us else 0.0, "fraction"),
        "search.self_ms": (attributed.get("search", 0.0) / 1e3, "ms"),
        "driver.outside_search_ms": (attributed["driver.outside_search"] / 1e3, "ms"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1, "fraction"),
    }
    detail = {
        "traced_request_wall_ms": sum(r["wall"] for r in records) * 1e3,
        "attributed_ms": {k: v / 1e3 for k, v in sorted(attributed.items())},
        "layer_replay_self_ms": {n: total(n) / 1e3 for n in sorted({s["name"] for s in hs})},
    }
    return m, detail


# ------------------------------------------------------------------ main ---

def run_workload(name, args, golden):
    spec = WORKLOADS[name]
    kind = spec["requests"]
    requests = SMOKE[kind] if args.smoke else (PAIRS if kind == "pairs" else TRIPLES)
    workdir = os.path.join(OUT, "run", name)
    os.makedirs(workdir, exist_ok=True)
    client = Client(name, spec, golden, workdir)
    pristine = populated_store(client, requests) if spec["store"] == "populated" else None
    client.attempted = 0  # the populate pass is not part of the run
    if args.trace:
        metrics, detail = per_layer(client, requests, pristine, args.seed)
    else:
        values, detail = end_to_end(client, requests, pristine, args.seed, args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "attempted": client.attempted, "failed": client.failed,
        "errors": client.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def print_table(res):
    print("== %s (seed %d, %s) ==" % (res["workload"], res["seed"],
                                      "traced" if res["trace"] else "untraced"))
    for k, m in res["metrics"].items():
        print("  %-28s %16.6g %s" % (k, m["value"], m["unit"]))
    d = res["detail"]
    if res["trace"]:
        wall = d["traced_request_wall_ms"]
        print("  traced request wall %.1f ms, attributed:" % wall)
        for k, v in d["attributed_ms"].items():
            print("    %-26s %10.1f ms %6.1f%%" % (k, v, 100 * v / wall))
        print("    %-26s %10.1f ms %6.1f%%" % (
            "total", sum(d["attributed_ms"].values()),
            100 * sum(d["attributed_ms"].values()) / wall))
    else:
        print("  %d passes, %d requests; wall_s quartiles %.4g..%.4g; "
              "cpu_s %.6g; request_p90_ms %.6g with %d samples beyond it "
              "(tail_ok=%s)"
              % (d["passes"], d["requests"], d["wall_s_quartiles"][0],
                 d["wall_s_quartiles"][1], d["cpu_s"], d["request_p90_ms"],
                 d["request_p90_tail_samples"],
                 str(d["request_p90_tail_ok"]).lower()))
    print("  attempted %d, failed %d" % (res["attempted"], res["failed"]),
          flush=True)


def record(path, results):
    existing = []
    if os.path.exists(path):
        with open(path) as f:
            existing = json.load(f)
    with open(path, "w") as f:
        json.dump(existing + results, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="permutes the request order within each pass")
    ap.add_argument("--seconds", type=float, default=10,
                    help="measure passes until about this long")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of two requests per workload")
    ap.add_argument("--record", metavar="FILE",
                    help="append each result (with its detail) to this JSON list")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = 0

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        with open(os.path.join(BENCH, "golden.json")) as f:
            golden = json.load(f)["requests"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.trace is None else [args.trace]
        results = []
        for name in names:
            for mode in modes:
                args.trace = mode
                results.append(run_workload(name, args, golden))
                print_table(results[-1])
    except Fatal as e:
        log("error: %s" % e)
        return 1
    if args.record:
        record(args.record, results)

    # One workload: metrics under their own names; several: prefixed.
    metrics = {}
    for res in results:
        for k, m in res["metrics"].items():
            metrics[k if len(names) == 1 else res["workload"] + "/" + k] = m
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
