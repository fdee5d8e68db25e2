#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig04_sweep --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/Cargo.toml, a workspace of its
own) and the `mnpu_serviced` daemon in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and passes
its output through. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. Exits non-zero, without printing a result, when the checkout
is incomplete, a build fails, or a determinism escape hatch is set.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("fig04_sweep", "serve_quad_noc", "daemon_open")
HATCHES = ("MNPU_NO_FASTFWD", "MNPU_NO_PREFIX_SHARE")
ROOT = pathlib.Path(__file__).resolve().parent.parent


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds (a checkout without `.git`)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        # Plain `cargo build --release` skips the daemon (a dev-dependency
        # of the root package), so name it.
        ["cargo", "build", "--release", "--offline", "-p", "mnpu-service", "--bin", "mnpu_serviced"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 1)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for hatch in HATCHES:
        if hatch in os.environ:
            die(f"refusing to record with {hatch} set: it measures a different code path", 3)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"{ROOT} is not a repository checkout (no Cargo.toml or crates/)")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["MNPU_NO_CACHE"] = "1"
    build(env)
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", str(target / "release" / "mnpu_serviced"),
        "--commit", source_id(),
    ]
    # A session of its own, so a run that overstays can be stopped together
    # with the daemon it started.
    p = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("benchmark run exceeded 170 s", 1)
    if p.returncode != 0:
        print(stdout, file=sys.stderr)
        die(f"benchmark exited with {p.returncode}", 1)
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(f"malformed result keys {sorted(result)}", 1)
    want = expected_metrics(args.trace)
    if list(result["metrics"]) != want:
        die(f"result metrics {list(result['metrics'])} do not match BENCHMARK.json {want}", 1)
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main()
