"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Asserts that
- every metric named in BENCHMARK.json is emitted with its unit on every
  workload, end-to-end ones untraced and per-layer ones traced;
- every function layers.json wraps recorded at least one span on each
  workload where it must run, so a binding the tracer missed fails
  here instead of reading as zero;
- a deliberately corrupted output is counted in ``failed``;
- without the program's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(args: list[str]) -> tuple[dict, list[str]]:
    code, lines = run(*args)
    assert code == 0, f"{args}: exit {code}"
    return json.loads(lines[-1]), lines


def units(entries: list) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = tracer.load_layers()
    e2e, per_layer = units(bench["end_to_end"]), units(bench["per_layer"])
    for wl in [w["name"] for w in bench["workloads"]]:
        res, _ = result(["--workload", wl, "--seed", "5", "--trace", "0"])
        assert res["correct"] and res["failed"] == 0, f"{wl}: {res}"
        got = {m: v["unit"] for m, v in res["metrics"].items()}
        assert got == e2e, f"{wl} end-to-end metrics: {sorted(set(got) ^ set(e2e))}"

        res, _ = result(["--workload", wl, "--seed", "5", "--trace", "1"])
        assert res["correct"], f"{wl} traced: {res}"
        got = {m: v["unit"] for m, v in res["metrics"].items()}
        assert got == per_layer, f"{wl} per-layer metrics: {sorted(set(got) ^ set(per_layer))}"
        spans = ROOT / ".perfbench_out" / f"{wl}-seed5-spans.jsonl"
        seen = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        missing = [tracer.span_name(layer, fn)
                   for layer, spec in layers.items() for fn, on in spec["wrap"].items()
                   if wl in on and tracer.span_name(layer, fn) not in seen]
        assert not missing, f"{wl}: no spans recorded for {missing}"

        res, lines = result(["--workload", wl, "--seed", "5", "--trace", "0", "--corrupt"])
        assert res["failed"] >= 1 and not res["correct"], f"{wl} corrupted: {res}"
        ratio = next(float(l.split()[1]) for l in lines if l.startswith("failed_ratio "))
        assert ratio > 0, f"{wl} corrupted: failed_ratio {ratio}"
        print(f"ok {wl}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = run("--workload", "cohort", "--seed", "5", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not any(l.startswith("{") for l in lines), f"bare checkout: exit {code}"
    print("ok bare checkout fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
