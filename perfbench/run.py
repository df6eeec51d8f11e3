"""Benchmark runner for weylchar: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {points,spectral,cli,all}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload {sweep,ill_conditioned,cli_errors} ...

The first form runs the workloads BENCHMARK.json declares ("all" runs the
three).  The second runs, in the same way, one that it does not declare:
`sweep`, whose runs spread too widely at the run length the declared set
can afford, or a defect probe, whose inputs hit known defects and are
kept out of the timed workloads; a probe reports their fail and wrong
fractions.

Run from the root of a source checkout (it needs src/weylchar and
docs/schemas).  Inputs are generated here from --seed; every measurement
runs in fresh worker processes with a pinned environment.

Times are CPU seconds of the worker and its reaped children
(`tracer.cpu_time`), which leave out time stolen from a shared virtual
machine; wall-clock figures are printed alongside for reference.

--trace 0 prints, per workload, every end-to-end metric with its unit plus
op and failure counts.  ops_per_s is the lower quartile, over the run's
units (blocks of ops that each do the same mix of work), of ops per CPU
second (`sustained_rate`).  --trace 1 runs a fixed number of units (about
--seconds worth) untraced, traced and untraced again, each in a fresh
process, and prints the per-layer table, the tracing overhead and each
layer's share of the traced run's time.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The workloads BENCHMARK.json declares.
WORKLOADS = ("points", "spectral", "cli")
#: Run by name only: not declared, so the benchmark's checks never run them.
UNDECLARED = ("sweep", "ill_conditioned", "cli_errors")
#: Workloads run as CLI subprocesses; their set-up is a cheap invocation.
CLI_WORKLOADS = ("cli", "cli_errors")
#: Fresh processes whose set-up time is sampled per run (median reported).
SETUP_SAMPLES = 3
#: Every child of a run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: The traced mode runs a fixed number of units, about --seconds worth on a
#: 2-vCPU host, so that for one seed its counts repeat exactly from run to run.
TRACE_UNITS_PER_S = {"sweep": 0.3, "points": 0.3, "spectral": 0.6, "cli": 0.07,
                     "ill_conditioned": 0.5, "cli_errors": 0.5}

END_TO_END = (  # (name, unit): the names BENCHMARK.json declares
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)
#: Reported by name with the end-to-end metrics.  They are 0 on workloads
#: where nothing fails, and a declared end-to-end metric must never be 0, so
#: BENCHMARK.json carries them in the traced run (per_layer); the result
#: line carries failures as attempted/failed.
CORRECTNESS = (("fail_frac", "ratio"), ("wrong_frac", "ratio"))

_CLI_SUBS = ("roots", "weyl", "dim", "char", "sweep", "certificate", "spectral", "error")
#: Spans whose self time (`<name>.self_s`) and count (`<name>.calls`) are reported.
_SPANS = (
    "rootsys.build", "rootsys.degenerate_split",
    "weylgroup.enumerate", "weylgroup.stabilizer", "weylgroup.transversal",
    "charcalc.character", "charcalc.char_singular", "charcalc.char_regular_exact",
    "charcalc.char_regular_float", "charcalc.snap", "charcalc.multiplicities",
    "charcalc.oracle", "charcalc.dim_irrep",
    "asymptotics.sweep",
    "spectral.words", "spectral.eigenphases", "spectral.generators",
)
_LAYERS = ("rootsys", "weylgroup", "charcalc", "asymptotics", "spectral", "cli", "bench")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced run reports."""
    out = []
    for span in _SPANS:
        out += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    out += [
        ("rootsys.inner.calls", "count"),
        ("weylgroup.enumerate.elements", "count"),
        ("weylgroup.enumerate.rss_delta_mb", "MB"),
        ("weylgroup.transversal.size", "count"),
        ("charcalc.multiplicities.weights", "count"),
        ("charcalc.max_rel_err", "ratio"),
        ("asymptotics.sweep.rows", "count"),
        ("spectral.words", "count"),
        ("spectral.char_call_s", "s"),
    ]
    for cache in ("weyl_cache", "orbit_cache", "evaluator_cache"):
        out += [(f"charcalc.{cache}.hit_ratio", "ratio"), (f"charcalc.{cache}.lookups", "count")]
    out.append(("cli.import_s", "s"))
    for sub in _CLI_SUBS:
        out += [(f"cli.{sub}.cpu_s", "s"), (f"cli.{sub}.wall_s", "s"),
                (f"cli.{sub}.rss_mb", "MB")]
    out.append(("cli.schema_valid_ratio", "ratio"))
    for layer in _LAYERS:
        out += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.share", "ratio")]
    out += [
        ("trace.cpu_s", "s"),
        ("trace.untraced_cpu_s", "s"),
        ("trace.overhead_s", "s"),
        ("fail_frac", "ratio"),
        ("wrong_frac", "ratio"),
    ]
    return out


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The pinned environment of every benchmark child."""
    env = dict(os.environ)
    env.pop("WEYLCHAR_CAP_WEYL", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    return env


def spawn_worker(workload, mode, doc_json, deadline, seconds=None, units=None, trace=0):
    """Run worker.py in a fresh process; returns (spawn monotonic time, result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--mode", mode, "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if units is not None:
        argv += ["--units", str(units)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a worker could start")
    t_spawn = time.monotonic()
    # Own session, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(doc_json, timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{err}")
    return t_spawn, json.loads(lines[-1])


def sustained_rate(rates) -> float:
    """Lower quartile of per-unit rates: the rate of the host's usual state.

    A 2-vCPU virtual machine on a shared host ran at a steady base speed
    with bursts of a few seconds up to ~1.7 times faster.  Over 4 minutes of a fixed loop cut into 1 s
    units, the lower quartile of each 20 s window spread by 0.06 of its
    median across windows, the median by 0.25 and the mean by 0.18.  It
    also drops a warm-up unit that fills lazily built caches.
    """
    rates = list(rates)
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def _fracs(tally) -> dict:
    n = tally["attempted"]
    return {"fail_frac": tally["failed"] / n if n else 0.0,
            "wrong_frac": tally["wrong"] / n if n else 0.0}


def measure(workload, seed, seconds, deadline) -> dict:
    """Untraced run: the end-to-end metrics of one workload."""
    from inputs import make_inputs

    doc = json.dumps(make_inputs(workload, seed))
    t_spawn, res = spawn_worker(workload, "measure", doc, deadline, seconds=seconds)
    if workload in CLI_WORKLOADS:
        samples = res["setup_samples"]  # (CPU s, wall s) of each invocation
        peak = max(s["rss_mb"] for s in res["subs"].values())
    else:
        samples = [(res["setup_cpu_s"], res["setup_end"] - t_spawn)]
        for _ in range(SETUP_SAMPLES - 1):
            t, r = spawn_worker(workload, "setup", doc, deadline)
            samples.append((r["setup_cpu_s"], r["setup_end"] - t))
        peak = res["peak_rss_mb"]
    metrics = {"setup_s": statistics.median(cpu for cpu, _ in samples),
               "ops_per_s": sustained_rate(cpu for cpu, _ in res["unit_rates"]),
               "peak_rss_mb": peak, **_fracs(res["tally"])}
    wall = {"setup_s": statistics.median(w for _, w in samples),
            "ops_per_s": sustained_rate(w for _, w in res["unit_rates"])}
    return {"result": res, "metrics": metrics, "wall": wall,
            "setup_samples_s": [cpu for cpu, _ in samples]}


def trace(workload, seed, seconds, deadline) -> dict:
    """Untraced, traced and untraced runs of the same units: per-layer metrics."""
    from inputs import make_inputs

    doc = json.dumps(make_inputs(workload, seed))
    units = max(1, round(seconds * TRACE_UNITS_PER_S[workload]))
    _, plain = spawn_worker(workload, "measure", doc, deadline, units=units)
    _, traced = spawn_worker(workload, "measure", doc, deadline, units=units, trace=1)
    # A second untraced run after the traced one, so that drift in machine
    # speed during the three runs biases the overhead less.
    _, plain2 = spawn_worker(workload, "measure", doc, deadline, units=units)
    untraced = (plain["cpu_s"] + plain2["cpu_s"]) / 2
    tr = traced["trace"]
    m = {name: 0.0 for name, _ in per_layer_names()}
    for span in _SPANS:
        m[f"{span}.self_s"] = tr["self"].get(span, 0.0)
        m[f"{span}.calls"] = tr["calls"].get(span, 0)
    m["rootsys.inner.calls"] = tr["counts"].get("rootsys.inner", 0)
    for key in ("weylgroup.enumerate.elements", "weylgroup.enumerate.rss_delta_mb",
                "charcalc.multiplicities.weights", "asymptotics.sweep.rows"):
        m[key] = tr["extra"].get(key, 0.0)
    n_trans = tr["calls"].get("weylgroup.transversal", 0)
    if n_trans:
        m["weylgroup.transversal.size"] = tr["extra"]["weylgroup.transversal.size"] / n_trans
    for key, (hits, lookups) in tr["caches"].items():
        m[f"{key}.hit_ratio"] = hits / lookups if lookups else 0.0
        m[f"{key}.lookups"] = lookups
    m["charcalc.max_rel_err"] = traced["tally"]["max_rel_err"]
    if workload == "spectral":
        m["spectral.words"] = traced["ops"]
    m["spectral.char_call_s"] = tr["char_from_spectral_s"]
    if workload in CLI_WORKLOADS:
        m["cli.import_s"] = statistics.median(traced["import_samples"])
        for sub, row in traced["subs"].items():
            m[f"cli.{sub}.cpu_s"] = row["cpu_s"]
            m[f"cli.{sub}.wall_s"] = row["wall_s"]
            m[f"cli.{sub}.rss_mb"] = row["rss_mb"]
        m["cli.schema_valid_ratio"] = traced["schema_valid_ratio"]
    total = traced["cpu_s"]
    for layer in _LAYERS:
        self_s = tr["layer_self"].get(layer, 0.0)
        m[f"layer.{layer}.self_s"] = self_s
        m[f"layer.{layer}.share"] = self_s / total
    m["trace.cpu_s"] = total
    m["trace.untraced_cpu_s"] = untraced
    m["trace.overhead_s"] = total - untraced
    m.update(_fracs(traced["tally"]))
    return {"result": traced, "metrics": m}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(workload, out, traced):
    res = out["result"]
    t = res["tally"]
    print(f"== {workload}: {res['ops']} ops in {res['units']} units, "
          f"{t['attempted']} attempted, {t['failed']} failed, {t['wrong']} wrong")
    for kind, row in sorted(t["by_kind"].items()):
        print(f"   {kind:<22} attempted {row['attempted']:>7}  failed {row['failed']:>6}"
              f"  wrong {row['wrong']:>6}")
    units = dict(per_layer_names()) if traced else dict(END_TO_END + CORRECTNESS)
    for name, value in out["metrics"].items():
        print(f"   {name:<36} {_fmt(value):>14} {units[name]}")
    if not traced:
        print("   setup samples (CPU s): " + ", ".join(_fmt(s) for s in out["setup_samples_s"]))
        print("   unit rates (ops per CPU s): "
              + ", ".join(f"{cpu:.4g}" for cpu, _ in res["unit_rates"]))
        print(f"   wall clock, for reference: setup {_fmt(out['wall']['setup_s'])} s, "
              f"{_fmt(out['wall']['ops_per_s'])} ops/s")
        return
    m = out["metrics"]
    print(f"   traced {_fmt(m['trace.cpu_s'])} CPU s, untraced {_fmt(m['trace.untraced_cpu_s'])}"
          f" CPU s, tracing overhead {_fmt(m['trace.overhead_s'])} s")
    for layer in _LAYERS:
        print(f"   share {layer:<12} {m[f'layer.{layer}.share']:7.1%}"
              f"  ({_fmt(m[f'layer.{layer}.self_s'])} s self)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="weylchar benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNDECLARED + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weylchar" / "__init__.py").is_file():
        print(f"error: no weylchar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    import numpy

    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, seed {args.seed}, {args.seconds} s per run")
    outs = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            run = trace if args.trace else measure
            outs[name] = run(name, args.seed, args.seconds, deadline)
            print_report(name, outs[name], bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = [n for n, _ in (per_layer_names() if args.trace else END_TO_END)]
    units = dict(per_layer_names() if args.trace else END_TO_END)
    summary = {}
    for name, out in outs.items():
        tally = out["result"]["tally"]
        summary[name] = {
            "correct": tally["failed"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": out["metrics"][k], "unit": units[k]} for k in declared},
        }
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
