"""What each workload runs: kernels, sizes, backends, the σ grid and the
served request stream. Shared by run.py (which measures) and pin_oracle.py
(which pins the correct answers), so the two cannot drift apart."""

import hashlib
import itertools
import random
import re

# run-exec: one size per kernel, chosen so executing the program dominates a
# `nobl run` cell (process start-up is a few ms of a 50 ms - 1 s cell).
RUN_EXEC = [("sort", 1024), ("stencil2", 32), ("stencil1", 1024),
            ("matmul", 4096), ("fft", 16384), ("samplesort", 16384),
            ("bitonic", 4096)]
# (backend, engine). `distributed` is left out on purpose: its trace equals
# `cost` by construction and the backend is slated for removal.
RUN_EXEC_CONFIGS = [("simulate", "seq"), ("simulate", "par:2"),
                    ("cost", "seq"), ("record", "seq")]

# certify-audit, certify half: all 14 kernels. The three analytic tiers
# follow from the registry flags: exact_h -> closed form (scan, transpose,
# broadcast, reduce, gather, shift); input_independent -> memoized record +
# replay; otherwise (samplesort) the cost-interpreter fallback.
CERTIFY = [("matmul", 4096), ("matmul-space", 1024), ("fft", 16384),
           ("sort", 1024), ("bitonic", 4096), ("stencil1", 256),
           ("stencil2", 64), ("scan", 16384), ("transpose", 16384),
           ("samplesort", 4096), ("broadcast", 4096), ("reduce", 16384),
           ("gather", 65536), ("shift", 65536)]
DENSE_SIGMAS = [0, 0.25, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96,
                128, 256, 512, 1024]

# certify-audit, audit half: every kernel at a size where one audit takes
# tenths of a second. 13 are oblivious; samplesort is data-dependent.
AUDIT = [("matmul", 4096), ("matmul-space", 4096), ("fft", 16384),
         ("sort", 1024), ("bitonic", 4096), ("stencil1", 1024),
         ("stencil2", 32), ("scan", 65536), ("transpose", 65536),
         ("samplesort", 1024), ("broadcast", 65536), ("reduce", 65536),
         ("gather", 65536), ("shift", 65536)]
DATA_DEPENDENT = {"samplesort"}

# serve-mix. Keys are (kernel, n, backend), the server's cache key.
SERVE_BACKENDS = ["cost", "simulate", "record", "analytic"]
SERVE_HOT = [("sort", 4096, "cost"), ("fft", 1024, "cost"),
             ("scan", 1024, "analytic"), ("matmul", 4096, "record"),
             ("transpose", 4096, "cost"), ("bitonic", 1024, "simulate"),
             ("samplesort", 1024, "cost"), ("reduce", 1024, "analytic")]
# Traces of 15k - 86k supersteps: a hit re-evaluates every fold over them.
SERVE_LARGE = [("stencil2", 128, "cost"), ("stencil2", 64, "cost"),
               ("stencil1", 2048, "cost")]
SERVE_WARM = [(k, n, b) for (k, n), b in zip(
    [("fft", 4096), ("fft", 256), ("sort", 256), ("sort", 512),
     ("bitonic", 4096), ("bitonic", 256), ("samplesort", 4096),
     ("samplesort", 256), ("matmul", 1024), ("matmul", 256),
     ("matmul-space", 1024), ("matmul-space", 256), ("stencil1", 512),
     ("stencil1", 256), ("stencil2", 32), ("stencil2", 16),
     ("scan", 16384), ("scan", 256), ("transpose", 16384),
     ("transpose", 256), ("broadcast", 4096), ("broadcast", 256),
     ("reduce", 16384), ("reduce", 256), ("gather", 16384),
     ("gather", 256), ("shift", 16384), ("shift", 256),
     ("fft", 16384), ("matmul", 16384)],
    SERVE_BACKENDS * 8)]
# The in-memory LRU holds fewer traces than hot + large + warm (41), so warm
# hits are answered from the .nbt disk tier.
SERVE_MEMORY_ENTRIES = 24
# One worker, as serve-mix has one caller. With two workers the server's
# peak RSS was bimodal by seed (about 81 or 97 MB); with one it is ~62 MB.
SERVE_WORKERS = 1

# The two executing classes cycle through pools of 100 keys each, so a block
# of 2000 requests asks for each pool key once. After every block run.py
# deletes the stored .nbt entries of its executing requests, and by the time
# the cycle comes round the memory LRU has evicted them (99 other pool keys
# were stored in between), so every such request executes again: the
# measured mix does not depend on how fast the server is.
#
# never-seen: 100 (kernel, n) pairs no other class requests, each under one
# backend (taken in turn). All are cheap: at most ~1M messages and ~25 ms.
_FRESH_SIZES = {
    "fft": [4, 8, 16, 32, 64, 128, 512, 2048],
    "sort": [4, 8, 16, 32, 64, 128],
    "bitonic": [4, 8, 16, 32, 64, 128, 512, 2048],
    "samplesort": [4, 8, 16, 32, 64, 128, 512, 2048],
    "matmul": [4, 16, 64], "matmul-space": [4, 16, 64],
    "stencil1": [4, 8, 16, 32, 64, 128], "stencil2": [2, 4, 8],
    "scan": [4, 8, 16, 32, 64, 128, 512, 2048, 4096, 8192],
    "transpose": [4, 16, 64, 1024],
    "broadcast": [4, 8, 16, 32, 64, 128, 512, 1024, 2048],
    "reduce": [4, 8, 16, 32, 64, 128, 512, 2048, 4096, 8192],
    "gather": [4, 8, 16, 32, 64, 128, 512, 1024, 2048, 4096, 8192],
    "shift": [4, 8, 16, 32, 64, 128, 512, 1024, 2048, 4096, 8192],
}
SERVE_FRESH = [(k, n, SERVE_BACKENDS[i % len(SERVE_BACKENDS)])
               for i, (k, n) in enumerate(
                   (k, n) for k, sizes in _FRESH_SIZES.items() for n in sizes)]
# cross-backend: a hot or warm (kernel, n) under a backend it is not cached
# with, so it executes although the same program's trace is on disk. Left
# out are the (kernel, n) whose re-execution takes 0.2 - 5.5 s (sort:4096,
# fft:16384, matmul:16384; the large traces): one of them per block would
# outweigh the other 1999 replies. Of the 105 that remain (0.5 - 190 ms
# each, 18 ms on average), the first 100 in a fixed order form the pool.
_CROSS_EXCLUDED = {("sort", 4096), ("fft", 16384), ("matmul", 16384)}
SERVE_CROSS = [(k, n, other) for k, n, b in SERVE_HOT + SERVE_WARM
               if (k, n) not in _CROSS_EXCLUDED
               for other in SERVE_BACKENDS if other != b]
random.Random(0).shuffle(SERVE_CROSS)
del SERVE_CROSS[100:]

# Request classes. The 80/20 hot/cold split is bench/bench_serve.cpp's mixed
# scenario. The cold 20 % is shared evenly by the four kinds of cold traffic
# (the repository keeps no traffic record to weigh them by). Every round of
# 20 requests holds exactly these classes, in a seed-shuffled order, and each
# class cycles through its pool, so a block of 2000 replies asks for the
# same keys the same number of times: each executing pool key once.
SERVE_ROUND = (["hot"] * 16
               + ["warm", "large", "cross_backend", "never_seen"])
SERVE_POOLS = {"hot": SERVE_HOT, "warm": SERVE_WARM, "large": SERVE_LARGE,
               "cross_backend": SERVE_CROSS, "never_seen": SERVE_FRESH}
EXECUTING_CLASSES = {"cross_backend", "never_seen"}


def serve_prefill_keys():
    return SERVE_HOT + SERVE_LARGE + SERVE_WARM


def serve_stream(seed):
    """Endless deterministic request stream: yields (key, class). The seed
    orders each round and each pool's cycle."""
    rng = random.Random(seed)
    cycles = {}
    for cls, pool in SERVE_POOLS.items():
        pool = list(pool)
        rng.shuffle(pool)
        cycles[cls] = itertools.cycle(pool)
    while True:
        order = list(SERVE_ROUND)
        rng.shuffle(order)
        for cls in order:
            yield next(cycles[cls]), cls


def spec_text(name, cells, backend, engine="seq", sigmas=None):
    """A campaign spec in the `nobl run --spec` grammar."""
    by_kernel = {}
    for k, n in cells:
        by_kernel.setdefault(k, []).append(n)
    algos = ", ".join(k + "".join(f":{n}" for n in ns)
                      for k, ns in by_kernel.items())
    text = (f"name = {name}\nalgorithms = {algos}\n"
            f"backends = {backend}\nengines = {engine}\n")
    if sigmas is not None:
        text += "sigmas = " + ", ".join(str(s) for s in sigmas) + "\n"
    return text


def h_digest(run):
    """Digest of a run document's (p, σ, H) cells."""
    text = ";".join(f"{c['p']}:{float(c['sigma'])!r}:{float(c['h'])!r}"
                    for c in run["cells"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pin_of(run):
    return {"supersteps": run["supersteps"], "messages": run["messages"],
            "h_digest": h_digest(run)}


_WS = re.compile(r'("(?:\\.|[^"\\])*")|\s+')


def minify(json_text):
    """Drop the whitespace between JSON tokens (pretty -> compact layout)."""
    return _WS.sub(lambda m: m.group(1) or "", json_text)
