#!/usr/bin/env python3
"""Check that the benchmark is steady: run workloads over several seeds and
report, per end-to-end metric, the median and the inter-quartile spread
(q3 - q1 over the median, quartiles from `statistics.quantiles(n=4)`)
against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads fig04_sweep,daemon_open --seeds 1-10

Runs are sequential (one workload run at a time). Raw results are appended
as JSON lines to --log when given.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print(r.stdout + r.stderr, file=sys.stderr)
                sys.exit(f"{w} seed {seed}: exit {r.returncode}")
            result = json.loads(r.stdout.strip().split("\n")[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']} {brief}")
            ok &= result["correct"] and result["failed"] == 0
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if name == "setup_s" or spread <= bounds[name] / 3 else "WIDE"
            ok &= verdict == "ok"
            print(
                f"{w} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread:.4f} bound {bounds[name]} {verdict}"
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
