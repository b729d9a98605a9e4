"""End-to-end benchmark of the GenASM serving stack (one workload per run).

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload map_short --seed 1 --seconds 25 --trace 0

The script builds the native kernels from source in place (intermediate
files under ``.bench_build/``), aborts unless the ``"native"`` engine is
available, runs the workload in this one process — server and closed-loop
load generator both — checks every output, and prints each metric with its
unit. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` builds the same deployment with span-recording wrappers and reports the
per-layer metrics instead, writing the spans to ``.bench_build/traces/``.
The exit status is non-zero when any operation fails or any output differs
from its in-process oracle, when a percentile has fewer than ten samples beyond it, or when the
native engine cannot be built.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

from pbench.spans import write_spans  # noqa: E402
from pbench.stats import InsufficientSamples  # noqa: E402

WORKLOAD_NAMES = ("align_http", "map_short", "map_long")


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def build_native() -> None:
    """Compile ``repro.core._native`` in place with the repository's setup.py."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "repro").is_dir():
        fail(f"no source tree beside perfbench/ (need setup.py and src/repro in {ROOT})")
    proc = subprocess.run(
        [
            sys.executable, "setup.py", "build_ext", "--inplace",
            "--build-temp", str(BUILD / "native"),
            "--build-lib", str(BUILD / "native-lib"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        fail(f"native build failed:\n{proc.stdout}\n{proc.stderr}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_native()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.engine import engine_info

    native = next(
        (info for info in engine_info() if info.name == "native"), None
    )
    if native is None or not native.available:
        reason = native.reason if native is not None else "not registered"
        fail(f'engine "native" is unavailable ({reason}); refusing to measure another engine')

    from pbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    outcome = asyncio.run(
        workloads.run(workload, args.seed, args.seconds, bool(args.trace))
    )
    if outcome.engine != "native":
        fail(f"server ran engine {outcome.engine!r}, not native")

    try:
        if args.trace:
            metrics = workloads.per_layer_metrics(outcome)
        else:
            metrics = workloads.end_to_end_metrics(outcome)
    except InsufficientSamples as exc:
        fail(f"{args.workload}: {exc}", code=3)

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "native_built": native.available,
            "engine": outcome.engine,
        },
        "samples": len(outcome.measured.ok),
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "mismatched_ops": outcome.mismatches,
        "setup_s_each": outcome.setup_seconds,
    }
    if args.trace:
        details["self_ms_per_op"] = workloads.layer_breakdown(outcome)
        BUILD.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(outcome.spans, str(trace_path))
        details["spans"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(details))

    # A failed operation produced no output to check: it counts as incorrect.
    correct = outcome.mismatches == 0 and outcome.failed == 0
    if outcome.mismatches:
        print(
            f"perfbench: {outcome.mismatches} outputs differ from the in-process oracle",
            file=sys.stderr,
        )
    if outcome.failed:
        print(
            f"perfbench: {outcome.failed} of {outcome.attempted} operations failed",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
