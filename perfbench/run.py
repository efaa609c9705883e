"""The repository's end-to-end performance benchmark.

    python3 perfbench/run.py --workload run-exec --seed 1 --seconds 35 --trace 0

Run from the repository root. It builds `nobl` and the traced driver from
source into .bench_build (or $CARGO_TARGET_DIR), runs one workload for
--seconds seconds, checks every output against perfbench/oracle.json, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the shipped `nobl` binary end to end (see README.md for
the metrics). Its timings are given in units of a fixed reference job
(perfbench_ref) timed in between, which cancels the host's slow and fast
phases; the raw times are printed too. --trace 1 runs perfbench_trace
instead, which times calls into each layer's entry points and writes a span
file; it prints the per-layer metrics. Workloads: run-exec, certify-audit,
serve-mix.
"""

import argparse
import functools
import glob
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time

import cells

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "oracle.json")
SETUP_REPEATS = 21  # serve-mix server launches
SETUP_PER_BATCH = 3  # batch workloads: `nobl list` probes per batch
REFS_PER_BATCH = 8  # batch workloads: reference jobs per batch
REF_NEIGHBOURS = 3  # batch workloads: an op's reference = these, nearest
REFS_PER_BLOCK = 5  # serve-mix: reference jobs after each block
SERVE_BLOCK = 2000  # replies per serve-mix block ("batch" for wall_ref)
# One cycle of each executing pool: every executing request in the traced
# run executes without deleting stored entries. Two connections, so that
# concurrent requests for one key can be coalesced.
TRACE_SERVE_REQUESTS = 2000
TRACE_SERVE_CONNECTIONS = 2

now = time.perf_counter


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build ---

def build(build_dir):
    """Configure once, then let the build tool bring both targets up to date."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "nobl_cli", "perfbench_trace", "perfbench_ref"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "nobl", "nobl"),
            os.path.join(build_dir, "perfbench_trace"),
            os.path.join(build_dir, "perfbench_ref"))


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


# -------------------------------------------------------------- processes ---

def spawn(argv, stdout=os.devnull, stderr=os.devnull):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    return os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
         0o644)])


def run_timed(argv, stdout=os.devnull, stderr=os.devnull):
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    t0 = now()
    pid = spawn(argv, stdout, stderr)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), now() - t0, usage.ru_maxrss / 1024


def percentile(xs, q):
    """Nearest-rank percentile."""
    ys = sorted(xs)
    return ys[min(len(ys) - 1, max(0, int(q / 100 * len(ys) + 0.5) - 1))]


class Server:
    """A `nobl serve` child; stop() always reaps it."""

    def __init__(self, nobl, sock, cache_dir, log_path):
        self.sock = sock
        self.pid = spawn([nobl, "serve", "--socket", sock, "--cache-dir",
                          cache_dir, "--workers", str(cells.SERVE_WORKERS),
                          "--memory-entries", str(cells.SERVE_MEMORY_ENTRIES)],
                         stderr=log_path)

    def connect(self, timeout=30.0):
        deadline = now() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                return s
            except OSError:
                s.close()
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    self.pid = None
                    raise RuntimeError("nobl serve exited")
                if now() > deadline:
                    raise RuntimeError("nobl serve did not come up")
                time.sleep(0.0005)

    def directive(self, word):
        with self.connect() as s, s.makefile("rb") as f:
            s.sendall(word.encode() + b"\n")
            return json.loads(f.readline())

    def peak_rss_mb(self):
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for nobl serve")

    def stop(self):
        if self.pid is None:
            return
        try:
            self.directive("shutdown")
        except (OSError, RuntimeError, ValueError):
            os.kill(self.pid, 9)
        os.waitpid(self.pid, 0)
        self.pid = None


# ----------------------------------------------------------------- oracle ---

class Oracle:
    def __init__(self):
        with open(ORACLE) as f:
            self.pins = json.load(f)
        self.failures = []

    def fail(self, what):
        self.failures.append(what)
        return False

    def check_run(self, prefix, run):
        """A run document against the pinned supersteps/messages/H digest."""
        key = f"{prefix}:{run['algorithm']}:{run['n']}"
        if cells.pin_of(run) != self.pins.get(key):
            return self.fail(f"{key} [{run['backend']}]: {cells.pin_of(run)} "
                             f"!= pinned {self.pins.get(key)}")
        return True

    def messages(self, kernel, n):
        return self.pins[f"run:{kernel}:{n}"]["messages"]


# ---------------------------------------------------------------- workloads ---

def reference_job(ctx):
    """Wall seconds of one run of the fixed reference job."""
    code, dt, _ = run_timed([ctx["ref"]])
    if code != 0:
        raise RuntimeError("perfbench_ref failed")
    return dt


def setup_probe(nobl, work):
    """Start-up of the batch CLI: launch until the registry is listed."""
    code, dt, _ = run_timed([nobl, "list", "--json"],
                            stdout=os.path.join(work, "list.json"))
    if code != 0:
        raise RuntimeError("nobl list failed")
    return dt


def batch_workload(ctx, ops):
    """Run every op (one process each) in a seed-shuffled order, batch after
    batch, until --seconds is spent; then check every output with its op's
    "check".

    The host runs whole stretches of a run 20-40 % slower or faster. So
    every batch also runs the reference job REFS_PER_BATCH times, at
    seed-shuffled places among its ops, and each time an op takes is
    divided by the median of the REF_NEIGHBOURS reference jobs closest to it
    in time. An op's latency is the median of those ratios over the run's
    batches, a batch's wall time is the sum over ops, and the latency p99
    is taken over ops.
    Set-up probes run before the first op and are also interleaved into
    every batch, so their median samples the whole run."""
    rng = random.Random(ctx["seed"])
    setup = [setup_probe(ctx["nobl"], ctx["work"])
             for _ in range(SETUP_PER_BATCH)]
    samples = [[] for _ in ops]  # per op: (latency s, peak RSS MB, mid)
    refs = []  # per reference job: (mid, seconds); mid = its middle instant
    results = []
    t_start, batch_s = now(), 0.0
    # Start a batch only if one more is expected to end within the window.
    while not results or now() - t_start + batch_s <= ctx["seconds"]:
        order = (list(range(len(ops))) + ["setup"] * SETUP_PER_BATCH
                 + ["ref"] * REFS_PER_BATCH)
        rng.shuffle(order)
        b0 = now()
        for i in order:
            t0 = now()
            if i == "ref":
                dt = reference_job(ctx)
                refs.append((t0 + dt / 2, dt))
                continue
            if i == "setup":
                setup.append(setup_probe(ctx["nobl"], ctx["work"]))
                continue
            op = ops[i]
            if os.path.exists(op["out"]):
                os.remove(op["out"])
            code, dt, rss = run_timed(op["argv"], stdout=op["stdout"],
                                      stderr=ctx["log"])
            text = ""
            if os.path.exists(op["out"]):
                with open(op["out"]) as f:
                    text = f.read()
            results.append((op, code, text))
            samples[i].append((dt, rss, t0 + dt / 2))
        batch_s = now() - b0

    def passes(op, code, text):
        try:
            return code == 0 and op["check"](text)
        except (ValueError, KeyError, TypeError) as e:
            log(f"unreadable output: {e!r}")
            return False

    failed = 0
    for op, code, text in results:
        if not passes(op, code, text):
            failed += 1
            log(f"FAILED: {' '.join(op['argv'][1:])} (exit {code})")
    def nearby_ref(mid):
        near = sorted(refs, key=lambda r: abs(r[0] - mid))[:REF_NEIGHBOURS]
        return statistics.median(dt for _, dt in near)

    op_ref = [statistics.median(dt / nearby_ref(mid) for dt, _, mid in xs)
              for xs in samples]
    wall = sum(op_ref)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall,
        "msgs_per_ref": sum(op["messages"] for op in ops) / wall,
        "peak_rss_mb": max(statistics.median(r for _, r, _ in xs)
                           for xs in samples),
        "req_p99_ref": percentile(op_ref, 99),
    }
    op_s = [statistics.median(dt for dt, _, _ in xs) for xs in samples]
    ref_s = [dt for _, dt in refs]
    print(f"{len(samples[0])} batches of {len(ops)} operations, "
          f"{len(setup)} set-up probes, {len(refs)} reference "
          f"jobs; the latency p99 is over the {len(ops)} per-op medians (the "
          f"slowest op)")
    print(f"raw times (not normalised): batch {sum(op_s):.4f} s, op p50 "
          f"{1e3 * statistics.median(op_s):.3f} ms, op p99 "
          f"{1e3 * percentile(op_s, 99):.3f} ms; reference job "
          f"{1e3 * statistics.median(ref_s):.3f} ms (median; "
          f"{min(ref_s) * 1e3:.1f}-{max(ref_s) * 1e3:.1f} ms)")
    return len(results), failed, metrics


def run_exec(ctx):
    oracle, ops = ctx["oracle"], []

    def check(text):
        runs = json.loads(text)["runs"]
        return len(runs) == 1 and oracle.check_run("run", runs[0])

    for k, n in cells.RUN_EXEC:
        for backend, engine in cells.RUN_EXEC_CONFIGS:
            name = f"{k}_{n}_{backend}_{engine.replace(':', '')}"
            spec = os.path.join(ctx["work"], name + ".spec")
            with open(spec, "w") as f:
                f.write(cells.spec_text(name, [(k, n)], backend, engine))
            out = os.path.join(ctx["work"], name + ".json")
            ops.append({"argv": [ctx["nobl"], "run", "--spec", spec, "--json",
                                 out, "--quiet"],
                        "stdout": os.devnull, "out": out, "check": check,
                        "messages": oracle.messages(k, n)})
    return batch_workload(ctx, ops)


def check_audit(oracle, verdict):
    key = f"audit:{verdict['name']}:{verdict['n']}"
    pin = oracle.pins.get(key)
    expect_oblivious = verdict["name"] not in cells.DATA_DEPENDENT
    if (pin is None or not verdict["passed"]
            or verdict["supersteps"] != pin["supersteps"]
            or verdict["oblivious"] != expect_oblivious):
        return oracle.fail(f"{key}: {verdict} vs pinned {pin}")
    return True


def certify_audit(ctx):
    """`nobl certify --backend analytic` and `nobl audit` on every kernel."""
    oracle, ops = ctx["oracle"], []

    def check_certify(text):
        runs = json.loads(text)["runs"]
        return (len(runs) == 1 and runs[0]["backend"] == "analytic"
                and oracle.check_run("certify", runs[0]))

    def check_verdict(text):
        kernels = json.loads(text)["kernels"]
        return len(kernels) == 1 and check_audit(oracle, kernels[0])

    for k, n in cells.CERTIFY:
        spec = os.path.join(ctx["work"], f"{k}_{n}.spec")
        with open(spec, "w") as f:
            f.write(cells.spec_text(f"{k}_{n}", [(k, n)], "analytic",
                                    sigmas=cells.DENSE_SIGMAS))
        out = os.path.join(ctx["work"], f"{k}_{n}.json")
        ops.append({"argv": [ctx["nobl"], "certify", "--backend", "analytic",
                             "--spec", spec, "--json", out, "--quiet"],
                    "stdout": os.devnull, "out": out, "check": check_certify,
                    "messages": oracle.pins[f"certify:{k}:{n}"]["messages"]})
    for k, n in cells.AUDIT:
        out = os.path.join(ctx["work"], f"audit_{k}_{n}.json")
        ops.append({"argv": [ctx["nobl"], "audit", "--kernel", k, "--n", str(n),
                             "--json"],
                    "stdout": out, "out": out, "check": check_verdict,
                    "messages": oracle.messages(k, n)})
    return batch_workload(ctx, ops)


# ------------------------------------------------------------------ serve ---

RUN_DOC = re.compile(rb'\{"serve_schema_version":1,"type":"run"')


def key_name(key):
    return f"{key[0]}_n{key[1]}_{key[2]}"


@functools.lru_cache(maxsize=None)
def request_bytes(key):
    return (cells.spec_text("perfbench", [key[:2]], key[2]) + ".\n").encode()


def reference_docs(ctx, keys):
    """The `nobl run --json` run entry (minified) of every key, computed once
    per build of `nobl` and kept under the build directory."""
    ref_dir = os.path.join(ctx["state"], "ref")
    os.makedirs(ref_dir, exist_ok=True)
    refs = {}
    for key in sorted(set(keys)):
        path = os.path.join(ref_dir, key_name(key) + ".json")
        if not os.path.exists(path):
            spec = os.path.join(ctx["work"], "ref.spec")
            with open(spec, "w") as f:
                f.write(cells.spec_text("ref", [key[:2]], key[2]))
            out = os.path.join(ctx["work"], "ref.json")
            code, _, _ = run_timed([ctx["nobl"], "run", "--spec", spec,
                                    "--json", out, "--quiet"],
                                   stderr=ctx["log"])
            if code != 0:
                raise RuntimeError(f"nobl run failed for {key}")
            with open(out) as f:
                doc = cells.minify(f.read())
            run = doc[doc.index('"runs":[') + 8:doc.rindex("]}")]
            with open(path + ".tmp", "w") as f:
                f.write(run)
            os.replace(path + ".tmp", path)
        with open(path) as f:
            refs[key] = f.read()
    return refs


def prefilled_cache(ctx):
    """A .nbt cache holding hot + large + warm, written by `nobl serve`
    itself once per build; each run serves from a fresh copy of it."""
    base = os.path.join(ctx["state"], "serve-cache")
    if not os.path.exists(os.path.join(ctx["state"], "serve-cache.done")):
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        server = Server(ctx["nobl"], os.path.join(ctx["rel_work"], "fill.sock"),
                        base, ctx["log"])
        try:
            with server.connect() as s, s.makefile("rb") as f:
                for key in cells.serve_prefill_keys():
                    s.sendall(request_bytes(key))
                    line = f.readline()
                    if RUN_DOC.match(line):
                        line = f.readline()
                    if b'"type":"done"' not in line:
                        raise RuntimeError(f"prefill of {key} failed: {line}")
        finally:
            server.stop()
        open(os.path.join(ctx["state"], "serve-cache.done"), "w").close()
    copy = os.path.join(ctx["work"], "cache")
    shutil.copytree(base, copy)
    return copy


def serve_setup(ctx, cache):
    """Launch `nobl serve` SETUP_REPEATS times against the warm cache dir,
    each until it answers a ping (its disk tier is scanned before it
    listens). The last server stays up for the workload."""
    sock = os.path.join(ctx["rel_work"], "s.sock")
    times, server = [], None
    for i in range(SETUP_REPEATS):
        t0 = now()
        server = Server(ctx["nobl"], sock, cache, ctx["log"])
        try:
            pong = server.directive("ping")
            times.append(now() - t0)
            if pong.get("type") != "pong":
                raise RuntimeError(f"bad ping reply {pong}")
        except BaseException:
            server.stop()
            raise
        if i + 1 < SETUP_REPEATS:
            server.stop()
    return statistics.median(times), server


def forget(cache, key):
    """Delete an executed key's .nbt entry, so that the key executes again
    when its pool cycles round (the memory LRU has evicted it by then)."""
    paths = glob.glob(os.path.join(cache, key_name(key) + "-*.nbt"))
    if len(paths) != 1:
        raise RuntimeError(f"{key}: expected one stored entry, got {paths}")
    os.remove(paths[0])


def serve_loop(ctx, server, cache):
    """Closed loop over one connection: the next request goes out when the
    previous reply is complete. Requests run in blocks of SERVE_BLOCK, a
    block only if one more is expected to end within --seconds. After each
    block the loop pauses to run the reference job REFS_PER_BLOCK times and
    to delete the stored entries of the block's executing requests. A block
    asks for each executing pool key once, so every such request executes.

    Returns per-request records (latency s, key, class, tier, ok), the
    served documents per key, and per block (start index, wall s, median
    reference s of the jobs just before and after it)."""
    stream = cells.serve_stream(ctx["seed"])
    records, seen, blocks = [], {}, []
    refs = [reference_job(ctx) for _ in range(REFS_PER_BLOCK)]
    t_start, block_s = now(), 0.0
    with server.connect() as s, s.makefile("rb") as f:
        while not blocks or now() - t_start + block_s <= ctx["seconds"]:
            first, executed = len(records), []
            b0 = now()
            for _ in range(SERVE_BLOCK):
                key, cls = next(stream)
                t0 = now()
                s.sendall(request_bytes(key))
                line = f.readline()
                done = f.readline() if RUN_DOC.match(line) else line
                dt = now() - t0
                ok = b'"type":"done"' in done
                tier = None
                if ok:
                    i = line.rindex(b'"cache":"') + 9
                    tier = line[i:line.index(b'"', i)].decode()
                    raw = line[line.index(b'"run":') + 6:
                               line.rindex(b',"server":')]
                    docs = seen.setdefault(key, {})
                    docs[raw] = docs.get(raw, 0) + 1
                    if cls in cells.EXECUTING_CLASSES:
                        if tier != "executed":
                            raise RuntimeError(f"{cls} request {key} was "
                                               f"answered from {tier}")
                        executed.append(key)
                records.append((dt, key, cls, tier, ok))
            block_s = now() - b0
            for key in executed:
                forget(cache, key)
            after = [reference_job(ctx) for _ in range(REFS_PER_BLOCK)]
            blocks.append((first, block_s, statistics.median(refs + after)))
            refs = after
    return records, seen, blocks


def serve_shares(records):
    """Measured share of requests per class and per answering tier, and
    each class's share of the summed client latency."""
    n, busy = len(records), sum(r[0] for r in records)
    cls_share, tier_share, cls_time = {}, {}, {}
    for dt, key, cls, tier, _ in records:
        cls_share[cls] = cls_share.get(cls, 0) + 1 / n
        tier_share[tier] = tier_share.get(tier, 0) + 1 / n
        cls_time[cls] = cls_time.get(cls, 0) + dt / busy
    return cls_share, tier_share, cls_time


def serve_mix(ctx):
    # One CPU for the whole loop: the server, this client and the reference
    # jobs (children inherit it). Wake-ups stay on one CPU, and whatever the
    # host does to that CPU slows the reference job as much as the server.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    oracle = ctx["oracle"]
    cache = prefilled_cache(ctx)
    reference_docs(ctx, cells.serve_prefill_keys())
    setup_s, server = serve_setup(ctx, cache)
    try:
        stats = server.directive("stats")["stats"]
        if stats["cache"]["disk_entries"] != len(cells.serve_prefill_keys()):
            raise RuntimeError(f"disk tier not scanned: {stats['cache']}")
        records, seen, blocks = serve_loop(ctx, server, cache)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    # A served document fails if its bytes differ from `nobl run --json`,
    # or if that reference itself misses the oracle.
    refs = reference_docs(ctx, seen.keys())
    failed = sum(1 for r in records if not r[4])
    for key, docs in seen.items():
        ref_ok = oracle.check_run("run", json.loads(refs[key]))
        for raw, count in docs.items():
            if raw != refs[key].encode():
                oracle.fail(f"served {key} differs from `nobl run --json`")
            if raw != refs[key].encode() or not ref_ok:
                failed += count

    # The first block is a warm-up: the server's analytic memo fills during
    # it (an analytic execution costs up to 3x more there). Each measured
    # block gives its wall time and messages; each request's latency is
    # divided by its block's reference time, and req_p99_ref is the
    # nearest-rank p99 over all measured requests.
    measured = blocks[1:]
    if len(measured) < 3:
        raise RuntimeError(f"only {len(blocks)} blocks of {SERVE_BLOCK}")
    per_block, lat, lat_ref = [], [], []
    for first, wall, ref in measured:
        block = records[first:first + SERVE_BLOCK]
        lat += [r[0] for r in block]
        lat_ref += [r[0] / ref for r in block]
        per_block.append((wall, ref,
                          sum(oracle.messages(*r[1][:2]) for r in block)))
    cls_share, tier_share, cls_time = serve_shares(records)
    print(f"serve-mix: {len(records)} requests over one connection, "
          f"{len(blocks)} blocks of {SERVE_BLOCK} (the first a warm-up), "
          f"{REFS_PER_BLOCK} reference jobs after each block; the p99 is over "
          f"{len(lat)} requests ({len(lat) // 100} beyond it)")
    print("  request classes: " + ", ".join(
        f"{c} {cls_share.get(c, 0):.4f}" for c in cells.SERVE_POOLS))
    print("  share of client latency: " + ", ".join(
        f"{c} {cls_time.get(c, 0):.4f}" for c in cells.SERVE_POOLS))
    print("  answered by tier: " + ", ".join(
        f"{t} {s:.4f}" for t, s in sorted(tier_share.items(), key=str)))
    walls = [w for w, _, _ in per_block]
    print(f"raw times (not normalised): block {statistics.median(walls):.4f}"
          f" s, p50 {1e3 * statistics.median(lat):.4f} ms, p99 "
          f"{1e3 * percentile(lat, 99):.3f} ms, "
          f"{SERVE_BLOCK / statistics.median(walls):.1f} requests/s; "
          f"reference job "
          f"{1e3 * statistics.median(r for _, r, _ in per_block):.3f} ms")
    metrics = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(w / r for w, r, _ in per_block),
        "msgs_per_ref": statistics.median(m * r / w for w, r, m in per_block),
        "peak_rss_mb": peak_rss,
        "req_p99_ref": percentile(lat_ref, 99),
    }
    return len(records), failed, metrics


# ----------------------------------------------------------------- traced ---

def traced(ctx):
    """perfbench_trace over every layer; serve requests come from this
    seed's serve-mix stream against a server on the prefilled cache."""
    oracle = ctx["oracle"]
    stream = cells.serve_stream(ctx["seed"])
    requests = [next(stream) for _ in range(TRACE_SERVE_REQUESTS)]
    rng = random.Random(ctx["seed"])
    bsp_cells = list(cells.RUN_EXEC)
    rng.shuffle(bsp_cells)
    spans_dir = os.path.join(ctx["build_dir"], "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir,
                         f"{ctx['workload']}-seed{ctx['seed']}.json")
    plan = {"bsp_cells": bsp_cells, "certify_cells": cells.CERTIFY,
            "certify_sigmas": cells.DENSE_SIGMAS, "audit_cells": cells.AUDIT,
            "nbt_cells": sorted({k[:2] for k in cells.SERVE_LARGE}),
            "serve_requests": [[*key, cls] for key, cls in requests],
            "spans": spans,
            "scratch": os.path.join(ctx["work"], "nbt"),
            "socket": os.path.join(ctx["rel_work"], "t.sock"),
            "connections": TRACE_SERVE_CONNECTIONS}
    plan_path = os.path.join(ctx["work"], "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    cache = prefilled_cache(ctx)
    server = Server(ctx["nobl"], plan["socket"], cache, ctx["log"])
    out_path = os.path.join(ctx["work"], "trace-out.json")
    try:
        server.directive("ping")
        code, wall, _ = run_timed([ctx["tracer"], plan_path, out_path],
                                  stderr=ctx["log"])
    finally:
        server.stop()
    if code != 0:
        raise RuntimeError(f"perfbench_trace exited {code}")
    with open(out_path) as f:
        out = json.load(f)

    requests = [key for key, _ in requests]
    refs = reference_docs(ctx, requests)
    failed = 0
    for run in out["runs"]:  # analytic documents come from the core pass
        prefix = "certify" if run["backend"] == "analytic" else "run"
        failed += not oracle.check_run(prefix, run)
    for key, doc in zip(requests, out["served"]):
        raw = doc[doc.index('"runs":[') + 8:doc.rindex("]}")]
        if raw != refs[key]:
            failed += 1
            oracle.fail(f"served {key} differs from `nobl run --json`")
    for verdict in out["audit"]:
        failed += not check_audit(oracle, verdict)
    attempted = len(out["runs"]) + len(out["served"]) + len(out["audit"])

    print(f"{'kernel':>12} {'n':>6} {'H(p=v,σ=0)':>14} {'exec_s.cost':>12}")
    for k, n, h, t in out["h_vs_time"]:
        print(f"{k:>12} {n:>6} {h:>14.6g} {t:>12.6f}")
    with open(spans) as f:
        by_name = json.load(f)["by_name"]
    print(f"{'span':>28} {'count':>6} {'total_s':>9} {'self_s':>9}")
    for name, t in sorted(by_name.items()):
        print(f"{name:>28} {t['count']:>6} {t['total_s']:>9.4f} "
              f"{t['self_s']:>9.4f}")
    m = out["metrics"]
    print(f"bsp.h_time_rank_corr = {m['bsp.h_time_rank_corr']:.4f}")
    check = out["overhead_check"]
    print(f"tracing overhead: {100 * m['trace.overhead_frac']:.4f}% "
          f"({int(m['trace.spans'])} spans at {check['span_ns']:.0f} ns each "
          f"over a {check['traced_run_s']:.2f} s traced run); spans written "
          f"to {spans}")
    print(f"  cross-check, whole bsp pass: traced {check['bsp_traced_s']:.3f} s"
          f", untraced {check['bsp_untraced_s']:.3f} s (mean of two), "
          f"{100 * (check['bsp_traced_s'] / check['bsp_untraced_s'] - 1):+.1f}"
          f"% (host noise dominates)")
    log(f"perfbench_trace took {wall:.2f} s")
    return attempted, failed, m


def declared_units(kind):
    """name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


WORKLOADS = {"run-exec": run_exec, "certify-audit": certify_audit,
             "serve-mix": serve_mix}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        nobl, tracer, ref = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    rel_work = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(rel_work, ignore_errors=True)
    os.makedirs(rel_work)
    ctx = {"nobl": nobl, "tracer": tracer, "ref": ref, "seed": args.seed,
           "seconds": args.seconds, "workload": args.workload,
           "build_dir": build_dir, "rel_work": rel_work,
           "work": os.path.abspath(rel_work),
           "log": os.path.join(os.path.abspath(rel_work), "stderr.log"),
           "state": os.path.join(build_dir, "perfbench-state",
                                 file_digest(nobl)),
           "oracle": Oracle()}
    def program_stderr():
        if os.path.exists(ctx["log"]):
            with open(ctx["log"]) as f:
                log(f.read()[-2000:])

    try:
        if args.trace:
            attempted, failed, metrics = traced(ctx)
        else:
            attempted, failed, metrics = WORKLOADS[args.workload](ctx)
        if failed:
            program_stderr()
    except BaseException:
        program_stderr()
        raise
    finally:
        shutil.rmtree(rel_work, ignore_errors=True)
    for what in ctx["oracle"].failures:
        log(f"MISMATCH: {what}")
    print(f"fail_frac = {failed / attempted:.6f} ({failed} of {attempted} "
          f"attempted operations failed)")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} are not the ones "
                           f"BENCHMARK.json declares: {sorted(units)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not ctx["oracle"].failures,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
