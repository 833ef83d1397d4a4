"""coopgraph benchmark: one workload per run, last stdout line is the JSON result.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with only a step
counter and two timer pairs in place; ``--trace 1`` repeats one operation
untraced and twice traced, and reports per-layer metrics, the tracing
overhead, and whether the per-layer counts repeated exactly. ``--workload
all`` runs the three workloads one after another, each in its own process,
and prints the end-to-end metrics side by side.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; OpenBLAS reads these once.
# One thread: on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31) a desk update
# took the same time as with two, and its run-to-run spread over five seeds
# fell from 12% to 6% of the median, since no GEMM waits on a second core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Boundary, Tracer, deterministic_counts, layer_unit  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RECORDED = HERE / "recorded.json"
WORKLOAD_NAMES = ("train-desk", "eval-desk", "oracle-csi27")
SETUP_PROBES = 7
MIN_OPS = 2
# the eight headline metrics of the human-readable report, in print order
REPORT_METRICS = (
    ("setup_s", "s"), ("update_s", "s"), ("collect_steps_per_s", "1/s"),
    ("ppo_samples_per_s", "1/s"), ("eval_episodes_per_s", "1/s"),
    ("oracle_episodes_per_s", "1/s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _blas_runtime() -> dict:
    """Thread count and configuration OpenBLAS reports from inside this process."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            out = {"threads": threads()}
            if config is not None:
                config.restype = ctypes.c_char_p
                out["config"] = config().decode()
            return out
    return {"threads": None}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain source checkout
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coopgraph").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment_stamp(workload, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": BLAS_THREADS, **_blas_runtime()},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": workload.input_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "warm_up": "one untimed operation before timing",
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_seconds(workload_name: str, seed: int, tmp: Path) -> list[float]:
    """Wall time of fresh processes from start until the workload is built:
    imports, config parsing, frozen-topology selection and init_params."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(tmp / f"probe{i}"),
               "--workload", workload_name, "--seed", str(seed)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return times


def run_op(workload, boundary, call=None) -> dict:
    """Run ``call`` (default: one operation); an exception fails it."""
    steps0, collect0, ppo0 = boundary.snapshot() if boundary else (0, 0.0, 0.0)
    t0 = time.perf_counter()
    ok = True
    try:
        (call or workload.op)()
    except Exception:
        traceback.print_exc()
        ok = False
    wall = time.perf_counter() - t0
    op = {"ok": ok, "wall": wall}
    if boundary:
        steps1, collect1, ppo1 = boundary.snapshot()
        rollout = collect1 - collect0 if workload.rollout_is_collect else wall
        op.update(steps=steps1 - steps0, rollout_s=rollout, ppo_s=ppo1 - ppo0)
    return op


def measure(cls, args, tmp: Path):
    """Untraced run: time operations for ``--seconds`` after one warm-up."""
    setup = setup_seconds(cls.name, args.seed, tmp)
    workload = cls(args.seed, tmp / "run")
    print("env " + json.dumps(environment_stamp(workload, args)), flush=True)
    boundary = Boundary()
    with boundary.active():
        warm = run_op(workload, None, workload.warm_up)
        ops = [] if warm["ok"] else [warm]
        spent = 0.0
        while warm["ok"] and (len(ops) < MIN_OPS or spent + ops[-1]["wall"] <= args.seconds):
            op = run_op(workload, boundary)
            ops.append(op)
            spent += op["wall"]
            print(f"op {len(ops)}: {op['wall']:.4f} s, ok={op['ok']}, env steps {op['steps']}", flush=True)
            if not op["ok"]:
                break
    good = [op for op in ops if op["ok"]]
    attempted = len(ops) * cls.units_per_op
    failed = (len(ops) - len(good)) * cls.units_per_op
    # with nothing completed there is nothing to time; zeros go with correct=false
    op_s = statistics.median(op["wall"] for op in good) if good else 0.0
    steps = sum(op["steps"] for op in good)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (op_s, "s"),
        "episodes_per_s": (cls.episodes_per_op / op_s if good else 0.0, "1/s"),
        "env_steps_per_s": (steps / sum(op["rollout_s"] for op in good) if good else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"timed {len(ops)} {cls.unit} batches of {cls.units_per_op}; "
          f"medians over {len(good)} operations and {SETUP_PROBES} set-up probes", flush=True)

    report = {"setup_s": metrics["setup_s"][0], "peak_rss_mb": metrics["peak_rss_mb"][0],
              "error_rate": failed / attempted}
    if cls.name == "train-desk":
        report["update_s"] = op_s
        report["collect_steps_per_s"] = metrics["env_steps_per_s"][0]
        # every collected step is replayed once per PPO epoch
        samples = steps * workload.trainer.train_config.ppo_epochs
        ppo_s = sum(op["ppo_s"] for op in good)
        report["ppo_samples_per_s"] = samples / ppo_s if ppo_s else 0.0
    elif cls.name == "eval-desk":
        report["eval_episodes_per_s"] = metrics["episodes_per_s"][0]
    else:
        report["oracle_episodes_per_s"] = metrics["episodes_per_s"][0]
    for name, unit in REPORT_METRICS:
        value = report.get(name)
        shown = "n/a (not exercised by this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<22} {shown}")
    print("report " + json.dumps(report), flush=True)

    problems = workload.problems()
    for line in workload.report_lines():
        print(line)
    value = workload.recorded_value()
    recorded = json.loads(RECORDED.read_text()).get(cls.name, {}).get(str(args.seed))
    match = "unrecorded" if recorded is None else ("yes" if recorded == value else "NO")
    print(f"recorded result for seed {args.seed}: {recorded}; this run: {value}; match: {match}")
    return metrics, attempted, failed, problems


def trace(cls, args, tmp: Path):
    """Traced run: one operation untraced, then the same operation twice traced."""
    warm = cls(args.seed, tmp / "warm")
    print("env " + json.dumps(environment_stamp(warm, args)), flush=True)
    run_op(warm, None, warm.warm_up)

    passes = []
    for label in ("untraced", "traced1", "traced2"):
        workload = cls(args.seed, tmp / label)
        tracer = Tracer() if label != "untraced" else None
        if tracer:
            with tracer.active():
                op = run_op(workload, None)
        else:
            op = run_op(workload, None)
        print(f"{label}: {op['wall']:.4f} s, ok={op['ok']}", flush=True)
        passes.append((workload, tracer, op))

    attempted = len(passes) * cls.units_per_op
    failed = sum(not op["ok"] for _, _, op in passes) * cls.units_per_op
    problems = [p for w, _, _ in passes for p in w.problems()]
    outputs = [w.outputs() for w, _, _ in passes]
    if any(o != outputs[0] for o in outputs):
        problems.append("the untraced and traced passes gave different results")

    (_, t1, op1), (_, t2, op2) = passes[1], passes[2]
    m1, m2 = t1.layer_metrics(), t2.layer_metrics()
    c1, c2 = deterministic_counts(m1), deterministic_counts(m2)
    diff = sorted(k for k in c1 if c1[k] != c2.get(k))
    if diff:
        problems.append(f"per-layer counts differ between two same-seed traced passes: {diff}")
    print(f"deterministic per-layer counts repeat exactly: {not diff} ({len(c1)} values)")

    # times come from the faster traced pass, the one less slowed by the host
    tracer, op, layer = (t1, op1, m1) if op1["wall"] <= op2["wall"] else (t2, op2, m2)
    metrics = {key: (value, layer_unit(key)) for key, value in layer.items()}
    metrics["trace.overhead_s"] = (op["wall"] - passes[0][2]["wall"], "s")
    span_path = OUT_DIR / f"spans-{cls.name}-seed{args.seed}.jsonl.gz"
    tracer.write(span_path)
    print(f"spans of the faster traced pass: {span_path.relative_to(ROOT)}")
    return metrics, attempted, failed, problems


def run_all(args) -> int:
    """Run every workload in its own process and print the report side by side."""
    rows, totals = {}, {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print(f"== {name}\n" + "\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        rows[name] = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(f"{'metric':<24}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES) + "  unit")
    for metric, unit in REPORT_METRICS:
        cells = [rows.get(n, {}).get(metric) for n in WORKLOAD_NAMES]
        print(f"{metric:<24}" + "".join(f"{'-' if c is None else format(c, '.6g'):>16}" for c in cells)
              + f"  {unit}")
    print(json.dumps({**totals, "report": rows}))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coopgraph" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no coopgraph source checkout at {ROOT} (need src/coopgraph and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, Path(args.setup_probe))
        return 0
    if args.workload == "all":
        return run_all(args)

    cls = WORKLOADS[args.workload]
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        metrics, attempted, failed, problems = (trace if args.trace else measure)(cls, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
