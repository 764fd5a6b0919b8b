#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload serve-2m --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when that
is unset, runs the binary, checks its outputs, and prints:

* a `provenance` line: host parallelism, shard count, seed, git commit (or
  `none` outside a git checkout), a digest of the built sources, run length;
* one line per check, and per metric and note: name, value, unit and
  sample count;
* as the last line, the result object
  `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` they are the per-layer metrics, and one
record per seal is written to `perfbench/out/`. Every workload reports
every declared metric; a run that does not exits non-zero. Durability
timings that only `ingest-wal-100k` has are printed as `note` lines.

The exit code is 0 only when the build, the run and every correctness
check succeeded: the program's own checks (accounting identities, epoch
order, cached vs cold committees, recovery, traced vs untraced report
hash) and the report hash pinned in `perfbench/pinned_hashes.txt` for the
run's workload, seed and length, where one is pinned.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned_hashes.txt"
# The run must end within 180 s of being started, build excluded.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    command = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    return target / "release" / "perfbench"


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=False,
        )
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml"]
    for tree in (ROOT / "crates", ROOT / "vendor", BENCH_DIR / "src"):
        files.extend(sorted(p for p in tree.rglob("*") if p.is_file()))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pinned_hash(workload, seed, epochs):
    if not PINNED.is_file():
        return None
    for line in PINNED.read_text().splitlines():
        fields = line.split("#")[0].split()
        if fields[:3] == [workload, str(seed), str(epochs)] and len(fields) == 4:
            return fields[3]
    return None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, args):
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(WORK_DIR),
    ]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"the run printed nothing (exit code {proc.returncode})")
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        fail(f"unreadable output (exit code {proc.returncode}): {lines[-1][:200]}")
    return None, proc.returncode


def main():
    args = parse_args()
    binary = build()
    started = time.monotonic()
    try:
        out, code = run_binary(binary, args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    wall = time.monotonic() - started

    checks = list(out["checks"])
    pinned = pinned_hash(args.workload, args.seed, out["timed_epochs"])
    if pinned is not None:
        checks.append({
            "name": "report_hash_matches_pinned",
            "ok": out["report_hash"] == pinned,
            "detail": f"{out['report_hash']} vs pinned {pinned}",
        })
    declared = declared_metrics(args.trace)
    undeclared = sorted(set(out["metrics"]) - declared)
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {undeclared}")
    unreported = sorted(declared - set(out["metrics"]))
    if unreported:
        fail(f"declared metrics the run did not report: {unreported}")
    missing = sorted(n for n, m in out["metrics"].items() if m["value"] is None)
    checks.append({"name": "metrics_finite", "ok": not missing, "detail": f"not finite: {missing}"})
    correct = code == 0 and all(c["ok"] for c in checks)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_epochs": out["timed_epochs"],
        "run_wall_s": round(wall, 3),
        "shards": out["shards"],
        "host_parallelism": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "report_hash": out["report_hash"],
    }
    print(json.dumps({"provenance": provenance}))
    for check in checks:
        status = "ok" if check["ok"] else "FAILED"
        print(f"check {check['name']}: {status} ({check['detail']})")
    for name, m in out["metrics"].items():
        print(f"metric {name} = {m['value']} {m['unit']} (samples: {m['samples']})")
    for name, m in out["notes"].items():
        print(f"note {name} = {m['value']} {m['unit']} (samples: {m['samples']}; not in the result)")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        seals = OUT_DIR / f"seals-{args.workload}-seed{args.seed}.jsonl"
        seals.write_text("".join(json.dumps(s) + "\n" for s in out["seals"]))
        print(f"seal records: {seals.relative_to(ROOT)}")

    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in out["metrics"].items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
