"""Seeded closed-loop benchmark of the segeval CLI.

    python3 bench/run.py --workload synth-1k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Runs from the root of a source checkout and imports segeval from ``src/``.
For one workload it generates and validates the inputs from the seed, runs
one warm-up iteration, then runs iterations back to back (one client, one
thread, the next command starts when the previous one returns) for
``--seconds`` seconds, checking every output.  ``--trace 1`` runs half of
that time untraced and half with every public segeval function wrapped in a
span, and reports per-layer metrics plus the tracing overhead.
``--workload all`` runs each workload in its own process and prints a table.

A fixed pure-Python calibration job runs before and after every timed step,
and the reported times are wall times scaled by ``REF_SECONDS`` over the
run's mean calibration time.  The host this was built on flips between a
fast and a 1.6x slower state within seconds, in a mix that drifts over
minutes; the scaling cancels most of that drift, and the raw wall times are
kept in the record.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to
``.bench_work/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 11
REF_SECONDS = 0.03  # calibration job time that scaled times are expressed at
WORKLOAD_NAMES = ("synth-1k", "diamond-12", "small-4k", "dsg-4k")
E2E_UNITS = {"setup_s": "s", "run_s": "s", "import_s": "s", "peak_rss_mb": "MiB"}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _tail_percentile(values: list[float]) -> dict | None:
    """Highest of p50..p99 with at least ten samples above it."""
    ordered = sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        k = int(len(ordered) * p / 100)  # samples at or below
        if len(ordered) - k - 1 >= 10:
            best = {"percentile": p, "value": ordered[k]}
    return best


# ---------------------------------------------------------------------------
# host speed


def calibrate() -> float:
    """Seconds for a fixed pure-Python job of dict, sort and format work.

    The job's working set is small, like the interpreter loops that
    dominate segeval, so it tracks how fast the host runs them right now.
    """
    start = time.perf_counter()
    table = {str(i): i * 0.5 for i in range(2000)}
    size = 0
    for r in range(12):
        rows = sorted(table.items(), key=lambda kv: (kv[1] % (13 + r), kv[0]))
        size += len(",".join(f"{k}:{v:.6g}" for k, v in rows))
    seconds = time.perf_counter() - start
    if not size:
        raise RuntimeError("calibration produced nothing")
    return seconds


class HostSpeed:
    """Calibration samples taken through a run, around each timed step."""

    def __init__(self) -> None:
        calibrate()  # the first call in a process runs cold
        self.samples: list[float] = []

    def timed(self, fn, *args):
        """``fn(*args)`` and its wall seconds."""
        self.samples.append(calibrate())
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.samples.append(calibrate())
        return result, elapsed

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into reported seconds.

        A mean, not a median: single samples fall in one host state or the
        other, and their mean follows the share of time spent in each.
        """
        return REF_SECONDS / statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# environment, read from /proc and the source tree


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _nproc() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "segeval").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": _nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Iteration:
    seconds: float  # wall time of the commands alone
    problems: list[str]
    warnings: int
    digest: str
    layers: dict[str, float] = field(default_factory=dict)


def _run_commands(commands) -> list:
    from workloads import call_cli

    results = []
    for argv in commands:
        results.append(call_cli(list(argv)))
        if results[-1].code != 0:
            break
    return results


def run_iteration(prepared, reference: dict[str, str] | None, speed: HostSpeed) -> tuple[Iteration, dict[str, str]]:
    """Run the workload's commands once; check exit codes and outputs."""
    from workloads import file_digests, pinned_digest

    shutil.rmtree(prepared.out_dir, ignore_errors=True)
    prepared.out_dir.mkdir(parents=True)
    gc.collect()
    results, seconds = speed.timed(_run_commands, prepared.commands)
    problems = [
        f"segeval {argv[0]} exited {r.code}: {r.stderr.strip()[-500:]}"
        for argv, r in zip(prepared.commands, results)
        if r.code != 0
    ]
    if not problems:
        try:
            problems = prepared.check()
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            problems = [f"output check failed: {exc!r}"]
    digests = file_digests(prepared.out_dir)
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests.keys() | reference.keys() if digests.get(k) != reference.get(k))
        problems.append("output bytes differ from the warm-up iteration: " + ", ".join(changed[:5]))
    warns = sum(r.warnings for r in results)
    return Iteration(seconds, problems, warns, pinned_digest(digests)), digests


def fresh_import() -> None:
    subprocess.run(
        [sys.executable, "-c", "import segeval.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )


def closed_loop(prepared, reference, speed: HostSpeed, seconds: float, tracer=None, imports=None) -> list[Iteration]:
    """Iterations back to back for ``seconds``.

    With ``imports``, fresh-process import timings are appended between
    iterations at an even rate over the window, so a few seconds of host
    noise cannot move all of them.
    """
    from tracing import layer_metrics, span_times

    def import_samples(target: float) -> None:
        while imports is not None and len(imports) < target:
            imports.append(speed.timed(fresh_import)[1])

    done = []
    loop_start = time.perf_counter()
    while True:
        import_samples(IMPORT_REPEATS * min(1.0, (time.perf_counter() - loop_start) / seconds))
        if tracer is not None:
            tracer.reset_counters()
            lo = tracer.span_count()
        it, _ = run_iteration(prepared, reference, speed)
        if tracer is not None:
            times = span_times(tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end, lo)
            it.layers = layer_metrics(times, tracer)
            it.layers["seg.lint_warnings"] = it.warnings
            it.layers["trace.spans"] = tracer.span_count() - lo
        done.append(it)
        if time.perf_counter() - loop_start >= seconds:
            import_samples(IMPORT_REPEATS)
            return done


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_before = _loadavg()
    speed = HostSpeed()
    _, import_in_process = speed.timed(importlib.import_module, "segeval.cli")
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        try:
            prepared, elapsed = speed.timed(workload.prepare, work, seed)
        except SetupError as exc:
            sys.exit(f"set-up failed: {exc}")
        setup_times.append(elapsed)
    warm, reference = run_iteration(prepared, None, speed)

    pins = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    pinned = pins.get(name, {}).get(str(seed))
    if pinned is not None and warm.digest != pinned:
        warm.problems.append(f"pinned-file digest {warm.digest} differs from the pinned {pinned}")

    imports: list[float] = []
    traced: list[Iteration] = []
    if trace:
        from tracing import Tracer

        untraced = closed_loop(prepared, reference, speed, seconds / 2, imports=imports)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(prepared, reference, speed, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        del tracer
    else:
        untraced = closed_loop(prepared, reference, speed, seconds, imports=imports)
    iterations = untraced + traced

    scale = speed.scale()
    run_times = [it.seconds * scale for it in untraced]
    q1, q3 = _quartiles(run_times)
    raw = {
        "setup_s": import_in_process + _median(setup_times) + warm.seconds,
        "run_s": _median([it.seconds for it in untraced]),
        "import_s": _median(imports),
    }
    metrics = {key: value * scale for key, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if trace:
        for key in traced[0].layers:
            value = _median([it.layers[key] for it in traced])
            layers[key] = value * scale if key.endswith("_s") else value
        layers["trace.run_s"] = _median([it.seconds for it in traced]) * scale
        layers["trace.untraced_run_s"] = metrics["run_s"]
        layers["trace.overhead_s"] = layers["trace.run_s"] - metrics["run_s"]
    shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for it in iterations if it.problems)
    problems = warm.problems + [p for it in iterations for p in it.problems]
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": len(iterations),
        "failed": failed,
        "fail_ratio": failed / len(iterations),
        "metrics": metrics,
        "layers": layers,
        "scale": scale,
        "raw_metrics": raw,
        "run_s_detail": {
            "median": metrics["run_s"], "q1": q1, "q3": q3, "samples": len(run_times),
            "tail": _tail_percentile(run_times), "all": run_times,
        },
        "setup_detail": {
            "import_in_process_s": import_in_process,
            "generate_validate_s": setup_times,
            "warm_up_s": warm.seconds,
        },
        "calibration_s": speed.samples,
        "import_samples": len(imports),
        "lint_warnings": warm.warnings,
        "pinned_digest": warm.digest,
        "problems": problems[:20],
        "environment": {**environment(), "loadavg_before": load_before, "loadavg_after": _loadavg()},
    }


# ---------------------------------------------------------------------------
# output


def _unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("_per_cell"):
        return "ratio"
    return "bytes" if metric.endswith("bytes_written") else "count"


def result_line(record: dict) -> dict:
    source = record["layers"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in source.items()},
    }


def print_record(record: dict) -> None:
    m, raw, d = record["metrics"], record["raw_metrics"], record["run_s_detail"]
    tail = d["tail"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    print(f"  setup_s      {m['setup_s']:.4f} s  (raw {raw['setup_s']:.4f} s)")
    print(
        f"  run_s        {d['median']:.4f} s  (raw {raw['run_s']:.4f} s; q1 {d['q1']:.4f}, q3 {d['q3']:.4f}, "
        f"n {d['samples']}"
        + (f", p{tail['percentile']} {tail['value']:.4f}" if tail else ", no tail percentile")
        + ")"
    )
    print(f"  import_s     {m['import_s']:.4f} s  (raw {raw['import_s']:.4f} s; median of {record['import_samples']})")
    print(f"  host scale   {record['scale']:.4f}  (REF_SECONDS / mean calibration time)")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MiB")
    print(f"  fail_ratio   {record['fail_ratio']:.4f} ratio  ({record['failed']} of {record['attempted']})")
    for key, value in record["layers"].items():
        print(f"  {key:<40} {value:.6g} {_unit(key)}")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")
    print(f"  environment  {json.dumps(record['environment'])}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    rows = []
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
        rows.append((name, result))
    if not trace:
        print()
        header = ("workload", "setup_s", "run_s", "import_s", "peak_rss_mb", "fail_ratio")
        print("  ".join(f"{h:>12}" for h in header))
        for name, result in rows:
            m = result["metrics"]
            cells = [name] + [f"{m[k]['value']:.4f} {m[k]['unit']}" for k in header[1:5]]
            cells.append(f"{result['failed'] / result['attempted']:.4f} ratio")
            print("  ".join(f"{c:>12}" for c in cells))
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "segeval" / "cli.py").is_file():
        print(f"error: no segeval sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_record(record)
    print(f"  record       {out.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
