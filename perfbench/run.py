"""volumetrica benchmark: one command per workload and run.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 25 --trace 0

Makes the inputs from ``--seed`` in separate processes (several times,
for ``setup_s``), then runs the workload in a fresh process
(worker.py) that checks every output. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. Earlier stdout lines record the environment and the
workload's own figures; the last line is the JSON result.

BLAS is pinned to one thread in every process it starts. Everything it
writes stays under ``.perfbench_work/`` (removed at the end) and
``.perfbench_out/`` (the spans of the last traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cohort", "dicom-estimate", "slice2d")
SETUPS = 3  # set-ups per untraced run; setup_s is their median

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def per_layer_units() -> dict:
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    return {m: u for spec in layers.values() for m, u in spec["metrics"].items()}


def setup(args, inputs: Path, env: dict, timeout: float) -> float:
    shutil.rmtree(inputs, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--out", str(inputs), "--scale", args.scale],
        env=env, stdout=sys.stderr, check=True, timeout=timeout,
    )
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="volumetrica benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes exercise every path quickly (self-test only)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one output so the checks must count it (self-test only)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "volumetrica" / "__init__.py").is_file():
        print(f"error: no volumetrica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = 170.0

    def remaining() -> float:
        return max(1.0, deadline - (time.perf_counter() - started))

    env = dict(os.environ) | BLAS_ENV
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    out_dir = ROOT / ".perfbench_out"
    try:
        setups = [setup(args, inputs, env, remaining()) for _ in range(1 if args.trace else SETUPS)]
        result_file = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs), "--work",
               str(work / "run"), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(result_file)]
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")]
        if args.corrupt:
            cmd.append("--corrupt")
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=remaining())
        res = json.loads(result_file.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    print("env " + json.dumps(res["env"] | {"workload": args.workload, "scale": args.scale}))
    for note in res["failures"]:
        print(f"check failed: {note}")
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["failed_ratio"] = (failed / attempted, "1")
        expected = per_layer_units()
    else:
        metrics = {"setup_s": (statistics.median(setups), "s")} | res["e2e"]
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        print(f"samples {res['samples']} operations, setups {len(setups)}")
        printed = res["printed"] | {"failed_ratio": (failed / attempted, "1")}
        for name, (value, unit) in printed.items():
            print(f"{name} {value:.6g} {unit}")
        expected = E2E_UNITS
    emitted = {m: u for m, (_, u) in metrics.items()}
    if emitted != expected:
        wrong = sorted(m for m in emitted.keys() | expected.keys() if emitted.get(m) != expected.get(m))
        print(f"error: metrics or units differ from their list: {wrong}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
