"""One workload in one fresh process; prints a JSON record on its last line.

Started by run.py with BLAS pinned to one thread.  With ``--probe`` it stops
after the cold iteration, so run.py can time set-up and the cold iteration
in more than one fresh process.  Untraced
mode times a cold iteration and then warm ones; traced mode alternates
untraced and traced warm iterations and derives the per-layer metrics from
the spans of the traced ones, then runs the layer microbenchmarks.  A
calibration loop (calibrate.py) runs before the first iteration and after
each one.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import calibration_s

REF_TOL = 1e-8  # largest accepted relative deviation from the reference outputs
MIN_WARM = 3  # untraced warm iterations, however long they take
MIN_PAIRS = 2  # (untraced, traced) pairs in a traced run


def _rel_dev(out, ref) -> float:
    """Largest normwise relative deviation over the output keys (1.0: mismatch)."""
    import numpy as np

    if out.keys() != ref.keys():
        return 1.0
    worst = 0.0
    for key, b in ref.items():
        a = out[key]
        if isinstance(b, str) or isinstance(a, str):
            worst = max(worst, 0.0 if a == b else 1.0)
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return 1.0
        fa, fb = np.isfinite(a), np.isfinite(b)
        if not np.array_equal(fa, fb) or not np.array_equal(a[~fa], b[~fb], equal_nan=True):
            return 1.0
        if fb.any():
            scale = float(np.max(np.abs(b[fb]))) or 1.0
            worst = max(worst, float(np.max(np.abs(a[fa] - b[fb]))) / scale)
    return worst


class Gate:
    """Counts operations, failures and the deviation from the reference."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.messages: list[str] = []

    def check(self, ops) -> None:
        bad = {i for i, op in enumerate(ops) if op.error}
        msgs = [f"{op.name}: {op.error}" for op in ops if op.error]
        for i, msg in self.workload.problems(ops):
            bad.add(i)
            msgs.append(msg)
        if any(op.error for op in ops):
            dev = 1.0
        else:
            out = json.loads(json.dumps(self.workload.outputs(ops)))
            if self.reference is None:
                self.reference = out  # first iteration of a seed without a stored one
            dev = _rel_dev(out, self.reference)
        if dev > REF_TOL:
            bad = set(range(len(ops)))
            msgs.append(f"outputs deviate from the reference by {dev:.3e}")
        self.max_rel_dev = max(self.max_rel_dev, dev)
        self.attempted += len(ops)
        self.failed += len(bad)
        self.messages += msgs


def _environment(root: Path) -> dict:
    import hashlib
    import os
    import platform
    import subprocess

    import mpmath
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fracsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "FRACSIM_THREADS": os.environ.get("FRACSIM_THREADS"),
    }


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up and the cold iteration")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import fracsim

    if Path(fracsim.__file__).resolve().parent != (root / "src" / "fracsim").resolve():
        print(f"fracsim imported from {fracsim.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ready = perf_counter()
    calibration_s(1)  # first calls into NumPy's FFT and ufuncs cost extra
    cals = [calibration_s()]

    ref_path = Path(__file__).parent / "reference.json"
    stored = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = stored[args.workload]
    gate = Gate(workload, reference)

    start = perf_counter()
    ops, cold = _timed(workload.run)
    cals.append(calibration_s())
    gate.check(ops)
    if args.write_reference:
        if args.seed != DEFAULT_SEED or gate.failed:
            print(f"not recording: seed {args.seed}, failures {gate.messages}",
                  file=sys.stderr)
            return 2
        stored[args.workload] = gate.reference
        ref_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": args.workload}))
        return 0
    warm: list[float] = []
    traced: list[float] = []
    record = {"ready": ready, "cold_s": cold}

    if args.trace == 0 and not args.probe:
        while True:
            ops, wall = _timed(workload.run)
            cals.append(calibration_s())
            gate.check(ops)
            warm.append(wall)
            spent = perf_counter() - start
            if len(warm) >= MIN_WARM and spent + statistics.median(warm) > args.seconds:
                break
    elif not args.probe:
        from tracer import Tracer
        import layers

        tracer = Tracer()
        index = 0
        while True:
            ops, wall = _timed(workload.run)
            cals.append(calibration_s())
            gate.check(ops)
            warm.append(wall)
            index += 1
            ops, wall = tracer.run_iteration(index, workload.run)
            cals.append(calibration_s())
            gate.check(ops)
            traced.append(wall)
            spent = perf_counter() - start
            pair = statistics.median(warm) + statistics.median(traced)
            if len(traced) >= MIN_PAIRS and spent + pair > args.seconds:
                break
        out_dir = root / ".perfbench_out"
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        record["layer"] = layers.summarise(tracer, list(range(1, index + 1)),
                                           workload, statistics.median(warm))
        record["layer"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(warm) - 1.0)

    record.update(
        warm_s=warm,
        traced_s=traced,
        cals=cals,
        attempted=gate.attempted,
        failed=gate.failed,
        max_rel_dev=gate.max_rel_dev,
        messages=gate.messages[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(root),
    )
    print(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
