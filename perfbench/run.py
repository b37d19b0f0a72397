"""fracsim benchmark: one workload, one fresh process, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bracket --seed 0 --seconds 30 --trace 0

Set-up and the cold iteration are timed in PROBES extra processes that stop
after the cold iteration, and in the measuring process itself; ``setup_s``
and ``cold_s`` are the medians over these processes.  End-to-end times
are scaled to a nominal host speed (see calibrate.py); per-layer times are
raw.
The measuring process runs with BLAS pinned to one thread and
FRACSIM_THREADS unset.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bracket", "march_2d", "linear")
PROBES = 3
DEADLINE_S = 170.0  # the whole command must end within 180 s

def _pinned_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("FRACSIM_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON record and spawn time."""
    spawned = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=_pinned_env(), stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), spawned


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's outputs as the reference")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "fracsim" / "__init__.py").is_file():
        print("run from the root of a fracsim checkout (src/fracsim not found)",
              file=sys.stderr)
        return 2
    if args.write_reference:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--write-reference"], env=_pinned_env())
        return proc.returncode
    if args.seconds is None or args.seconds < 1 or args.trace is None:
        ap.error("--seconds (at least 1) and --trace are required")

    start = perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    records = []
    try:
        for i in range(PROBES + 1):
            extra = (["--seconds", str(args.seconds), "--trace", str(args.trace)]
                     if i == PROBES else ["--probe"])
            rec, spawned = _worker([*common, *extra],
                                   DEADLINE_S - (perf_counter() - start))
            rec["setup_s"] = rec["ready"] - spawned
            records.append(rec)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    max_rel_dev = max(r["max_rel_dev"] for r in records)
    messages = [m for r in records for m in r["messages"]]

    # Set-up and the cold iteration are scaled by the two calibrations around
    # the cold iteration, the warm iterations by the measuring process's median.
    for r in records:
        local = NOMINAL_S / statistics.mean(r["cals"][:2])
        r["setup_scaled_s"] = r["setup_s"] * local
        r["cold_scaled_s"] = r["cold_s"] * local
    speed = NOMINAL_S / statistics.median(rec["cals"])
    if args.trace == 0:
        metrics = {
            "wall_s": speed * statistics.median(rec["warm_s"]),
            "cold_s": statistics.median(r["cold_scaled_s"] for r in records),
            "setup_s": statistics.median(r["setup_scaled_s"] for r in records),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = _units("end_to_end")
    else:
        metrics = dict(rec["layer"])
        metrics["fail_frac"] = failed / attempted
        metrics["max_rel_dev"] = max_rel_dev
        units = _units("per_layer")
    missing = set(units) - set(metrics)
    if missing:
        print(f"benchmark failed: metrics not produced: {sorted(missing)}",
              file=sys.stderr)
        return 3

    print(f"# environment: {json.dumps(rec['env'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(rec['warm_s'])} warm + {len(rec['traced_s'])} traced iterations, "
          f"{attempted} operations, {failed} failed, max_rel_dev {max_rel_dev:.3e}")
    print(f"# raw times (warm ones scaled by {speed:.4f} for wall_s): cold "
          + " ".join(f"{r['cold_s']:.4f}" for r in records)
          + "; warm " + " ".join(f"{t:.4f}" for t in rec["warm_s"])
          + "; traced " + " ".join(f"{t:.4f}" for t in rec["traced_s"])
          + "; set-up " + " ".join(f"{r['setup_s']:.4f}" for r in records))
    print("# scaled times: cold " + " ".join(f"{r['cold_scaled_s']:.4f}" for r in records)
          + "; set-up " + " ".join(f"{r['setup_scaled_s']:.4f}" for r in records))
    for msg in messages:
        print(f"# check failed: {msg}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
