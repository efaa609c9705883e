"""Regenerate perfbench/oracle.json: the correct answer for every
(kernel, n) the workloads touch, as the given `nobl` binary computes it.

    python3 perfbench/pin_oracle.py .bench_build/nobl/nobl

Pins per cell: supersteps, messages and a digest of the (p, σ, H) cells,
taken from `nobl run --backend cost` (traces are identical across backends,
so one backend pins all of them). `run:` keys use the default σ grid,
`certify:` keys the dense grid of certify-audit; `audit:` keys pin the
superstep count and the obliviousness verdict of `nobl audit`.
"""

import json
import os
import subprocess
import sys
import tempfile

import cells


def run_doc(nobl, cell_list, sigmas=None):
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "pin.spec")
        out = os.path.join(tmp, "pin.json")
        with open(spec, "w") as f:
            f.write(cells.spec_text("pin", cell_list, "cost", sigmas=sigmas))
        subprocess.run([nobl, "run", "--spec", spec, "--json", out, "--quiet"],
                       check=True)
        with open(out) as f:
            return json.load(f)["runs"]


def main():
    nobl = sys.argv[1]
    run_cells = sorted(set(cells.RUN_EXEC) | set(cells.AUDIT)
                       | {k[:2] for k in cells.serve_prefill_keys()}
                       | {k[:2] for k in cells.SERVE_FRESH})
    oracle = {}
    for run in run_doc(nobl, run_cells):
        oracle[f"run:{run['algorithm']}:{run['n']}"] = cells.pin_of(run)
    for run in run_doc(nobl, cells.CERTIFY, sigmas=cells.DENSE_SIGMAS):
        oracle[f"certify:{run['algorithm']}:{run['n']}"] = cells.pin_of(run)
    for k, n in cells.AUDIT:
        out = subprocess.run([nobl, "audit", "--kernel", k, "--n", str(n),
                              "--json"], check=True, capture_output=True,
                             text=True).stdout
        verdict = json.loads(out)["kernels"][0]
        oracle[f"audit:{k}:{n}"] = {"supersteps": verdict["supersteps"],
                                    "oblivious": verdict["oblivious"]}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "oracle.json")
    with open(path, "w") as f:
        json.dump(oracle, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(oracle)} cells to {path}")


if __name__ == "__main__":
    main()
