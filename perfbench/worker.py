"""One fresh benchmark process: set up a workload, run its ops, check them.

Invoked by run.py as `python worker.py --workload W --mode M ...` with the
input document (inputs.make_inputs) on stdin; prints one JSON object on its
last stdout line.  All times are CPU seconds (`tracer.cpu_time`).  Modes:

- setup:   set up and exit; reports the CPU time used from process start
           to the end of set-up, and when set-up ended (monotonic clock).
- measure: set up, run units until --seconds of op time have passed (or
           exactly --units units), then check every output against its
           independent reference, outside the timed region.  A unit is a
           block of ops that does the same mix of work in every unit;
           the CPU time of each unit is reported, so the runner can take
           a quantile of the unit rates.

With --trace 1 the span tracer is installed before set-up and removed
before the checks, so reference work never shows in the layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import Tracer, cpu_time
from weylchar import asymptotics, charcalc, rootsys, spectral
from weylchar.torus import exact_point, float_point

ROOT = Path(__file__).resolve().parent.parent

#: |value - reference| / dim above this fails a character evaluation.
POINTS_TOL = 1e-6
#: |ratio - oracle ratio| and the excess of |chi|/dim over 1 allowed per row.
SWEEP_TOL = 1e-9
#: Sweep rows up to this dimension are checked against the oracle (E6
#: Freudenthal costs ~1 s at dim 351 and ~7 s at dim 3003).
SWEEP_ORACLE_DIM_CAP = 400
#: Moment and per-word character tolerance (both normalized by dim).
SPECTRAL_TOL = 1e-8
CLI_OK_EXITS = (0, 2, 3, 4)
CHILD_TIMEOUT_S = 120


class Tally:
    """Op outcome counts. A failed op either raised (or exited badly) or
    returned a value that disagrees with its reference ("wrong")."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.max_rel_err = 0.0
        self.by_kind = {}

    def add(self, ops: int, kind: str, outcome: str):
        if outcome not in ("ok", "raised", "wrong"):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += ops
        row = self.by_kind.setdefault(kind, {"attempted": 0, "failed": 0, "wrong": 0})
        row["attempted"] += ops
        if outcome != "ok":
            self.failed += ops
            row["failed"] += ops
        if outcome == "wrong":
            self.wrong += ops
            row["wrong"] += ops

    def compare(self, value, reference, scale: float, tol: float) -> str:
        """'ok' or 'wrong' for a returned value against its reference."""
        if not (_finite(value) and _finite(reference)):
            return "wrong"
        err = abs(complex(value) - complex(reference)) / scale
        self.max_rel_err = max(self.max_rel_err, err)
        return "ok" if err <= tol else "wrong"

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "max_rel_err": self.max_rel_err, "by_kind": self.by_kind}


def _finite(z) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _frac_vec(strs):
    return tuple(Fraction(s) for s in strs)


def _call(fn, *args):
    """(result, None) or (None, 'ExcType: message'): program errors are op
    outcomes here, never a reason to stop the run."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed op
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# sweep: E6 decay rows at one A4xA1 face
# ---------------------------------------------------------------------------


class Sweep:
    def __init__(self, doc):
        self.doc = doc

    def setup(self):
        d = self.doc
        self.rs = rootsys.build_root_system(d["group"])
        self.h0 = exact_point(_frac_vec(d["point"]))
        self.omega = self.rs.fundamental_weights()[d["fundamental_index"]]
        charcalc.cached_weyl_group(self.rs)
        # Builds the cached singular evaluator (stabilizer and transversal).
        charcalc.character(self.rs, tuple(0 for _ in self.omega), self.h0)

    def units(self):
        ks, n = self.doc["ks"], self.doc["chunk"]
        return [ks[i:i + n] for i in range(0, len(ks) - n + 1, n)]

    def ops_in(self, unit):
        return len(unit)

    def run(self, ks):
        path = asymptotics.WeightPath.ray(self.rs, self.omega, ks)
        report, err = _call(asymptotics.normalized_char_sweep, self.rs, path, self.h0)
        if err:
            return {"error": err}
        return {"rows": [(k, d, ratio) for k, _, d, ratio in report.entries]}

    def check(self, records, tally):
        for ks, rec in records:
            if "error" in rec:
                tally.add(len(ks), "row", "raised")
                continue
            if sorted(k for k, _, _ in rec["rows"]) != sorted(ks):
                tally.add(len(ks), "row", "wrong")
                continue
            for k, dim, ratio in rec["rows"]:
                kind = "row_oracle" if dim <= SWEEP_ORACLE_DIM_CAP else "row"
                outcome = "ok" if _finite(ratio) and 0 <= ratio <= 1 + SWEEP_TOL else "wrong"
                if outcome == "ok" and kind == "row_oracle":
                    lam = tuple(k * x for x in self.omega)
                    ref = charcalc.char_weightsum_oracle(self.rs, lam, self.h0)
                    outcome = tally.compare(ratio, abs(ref.value) / dim, 1.0, SWEEP_TOL)
                tally.add(1, kind, outcome)


# ---------------------------------------------------------------------------
# points: distinct (weight, point) pairs on F4 and B4 against the oracle
# ---------------------------------------------------------------------------


class Points:
    """One unit is a block: every weight of each group, once per point kind."""

    def __init__(self, doc):
        self.doc = doc

    def setup(self):
        self.rs = {}
        for name in self.doc["groups"]:
            rs = rootsys.build_root_system(name)
            charcalc.cached_weyl_group(rs)
            self.rs[name] = rs
        self.blocks = []
        for block in self.doc["blocks"]:
            ops = []
            for op in block:
                rs = self.rs[op["group"]]
                lam = rs.weight_from_fundamental(op["weight"])
                if op["kind"] == "near_wall":
                    h = float_point(op["point"])
                else:
                    h = exact_point(_frac_vec(op["point"]))
                ops.append((op, rs, lam, h))
            self.blocks.append(ops)

    def units(self):
        return self.blocks

    def ops_in(self, unit):
        return len(unit)

    def run(self, block):
        out = []
        for _, rs, lam, h in block:
            cv, err = _call(charcalc.character, rs, lam, h)
            ref, ref_err = _call(charcalc.char_weightsum_oracle, rs, lam, h)
            out.append({"value": None if err else cv.value, "error": err or ref_err,
                        "reference": None if ref_err else ref.value})
        return out

    def check(self, records, tally):
        for block, recs in records:
            for (op, rs, lam, _), rec in zip(block, recs):
                kind = f"{op['group']}.{op['kind']}"
                if rec["error"]:
                    tally.add(1, kind, "raised")
                    continue
                dim = charcalc.dim_irrep(rs, lam)
                tally.add(1, kind,
                          tally.compare(rec["value"], rec["reference"], dim, POINTS_TOL))


# ---------------------------------------------------------------------------
# spectral: Kesten-McKay moments, one op per word
# ---------------------------------------------------------------------------


def _su2_character(n: int, theta: float) -> float:
    """Closed-form SU(2) character of spin n/2 at eigenvalues e^{+-i theta}."""
    return sum(math.cos((n - 2 * j) * theta) for j in range(n + 1))


def _word_products(gens, words):
    """Stacked products g_{w1} ... g_{wm} for an (n, m) array of words."""
    mats = np.stack(gens.elements)
    out = np.broadcast_to(np.eye(gens.dim, dtype=complex), (len(words), gens.dim, gens.dim))
    for j in range(words.shape[1]):
        out = out @ mats[words[:, j]]
    return out


class Spectral:
    """One unit is a block of three moments: A1 exact, A2 exact, A2 sampled."""

    def __init__(self, doc):
        self.doc = doc

    def setup(self):
        d = self.doc
        self.a1 = rootsys.build_root_system("A1")
        self.a2 = rootsys.build_root_system("A2")
        self.lam1 = self.a1.weight_from_fundamental(d["a1_weight"])
        self.lam2 = self.a2.weight_from_fundamental(d["a2_weight"])
        self.gens1 = spectral.catalog_su2_free_pair()
        haar = spectral.haar_generator_set(3, 2, d["haar_seed"])
        inverses = tuple(g.conj().T for g in haar.elements)
        self.gens2 = spectral.generator_set(haar.elements + inverses, symmetric=True)
        for rs in (self.a1, self.a2):
            charcalc.cached_weyl_group(rs)

    def units(self):
        for b in self.doc["blocks"]:
            yield (("a1_exact", b["a1_order"], None, b["check_seed"]),
                   ("a2_exact", b["a2_order"], None, b["check_seed"]),
                   ("a2_sampled", b["sampled_order"], b["sample_seed"], b["check_seed"]))

    def _target(self, kind):
        if kind == "a1_exact":
            return self.a1, self.lam1, self.gens1
        return self.a2, self.lam2, self.gens2

    def ops_in(self, block):
        return sum(self._words_in(moment) for moment in block)

    def _words_in(self, moment):
        kind, m, _, _ = moment
        if kind == "a2_sampled":
            return self.doc["samples"]
        return self._target(kind)[2].size ** m

    def run(self, block):
        return [self._moment(moment) for moment in block]

    def _moment(self, moment):
        kind, m, sample_seed, _ = moment
        rs, lam, gens = self._target(kind)
        if kind == "a2_sampled":
            out, err = _call(spectral.moment_sampled, rs, lam, gens, m,
                             self.doc["samples"], sample_seed)
            return {"error": err, "value": None if err else out[0]}
        out, err = _call(spectral.moment_exact, rs, lam, gens, m)
        return {"error": err, "value": out}

    def _words(self, moment):
        kind, m, sample_seed, _ = moment
        gens = self._target(kind)[2]
        if kind == "a2_sampled":
            # moment_sampled documents its stream: Philox(seed), words drawn
            # as one (n_samples, m) integer array.
            rng = np.random.Generator(np.random.Philox(sample_seed))
            return rng.integers(0, gens.size, size=(self.doc["samples"], m))
        return np.array(list(itertools.product(range(gens.size), repeat=m)))

    def check(self, records, tally):
        for block, recs in records:
            for moment, rec in zip(block, recs):
                self._check_moment(moment, rec, tally)

    def _check_moment(self, moment, rec, tally):
        n1 = int(self.lam1[0] - self.lam1[1])  # 2l for the A1 weight
        kind, _, _, check_seed = moment
        ops = self._words_in(moment)
        if rec["error"]:
            tally.add(ops, kind, "raised")
            return
        rs, lam, gens = self._target(kind)
        dim = charcalc.dim_irrep(rs, lam)
        words = self._words(moment)
        if kind == "a1_exact":
            # Closed-form moment over the same words, all of them.
            eig = np.linalg.eigvals(_word_products(gens, words))
            theta = np.abs(np.angle(eig[:, 0]))
            chi = [_su2_character(n1, t) for t in theta]
            ref = sum(chi) / (len(chi) * dim)
            moment_ok = tally.compare(rec["value"], ref, 1.0, SPECTRAL_TOL)
        elif _finite(rec["value"]) and abs(rec["value"]) <= 1 + SPECTRAL_TOL:
            moment_ok = "ok"
        else:
            moment_ok = "wrong"
        if moment_ok != "ok":
            tally.add(ops, kind, moment_ok)
            return
        rng = np.random.Generator(np.random.Philox(check_seed))
        picked = rng.choice(len(words), size=min(self.doc["checked_words"], len(words)),
                            replace=False)
        bad = 0
        for w in _word_products(gens, words[picked]):
            h = spectral.conjugacy_phases(w)
            cv, err = _call(charcalc.character, rs, lam, h)
            if kind == "a1_exact":
                ref = _su2_character(n1, (h.coords[0] - h.coords[1]) / 2)
            else:
                ref = charcalc.char_weightsum_oracle(rs, lam, h).value
            outcome = "raised" if err else tally.compare(cv.value, ref, dim, SPECTRAL_TOL)
            if outcome != "ok":
                tally.add(1, kind, outcome)
                bad += 1
        tally.add(ops - bad, kind, "ok")


# ---------------------------------------------------------------------------
# cli: the command-line front end as subprocesses
# ---------------------------------------------------------------------------


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion.

    Returns (exit code, stdout, stderr, wall s, CPU s, peak RSS MB); CPU
    time and peak RSS are the child's own, from wait4.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         stdin=subprocess.DEVNULL)
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    err_chunks = []
    reader = threading.Thread(target=lambda: err_chunks.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        p.stdout.close()
        p.stderr.close()
    wall = time.perf_counter() - t0
    return (p.returncode, out.decode(), b"".join(err_chunks).decode(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _cli_argv(args):
    return [sys.executable, "-m", "weylchar.cli", *args]


class Cli:
    def __init__(self, doc, tracer=None):
        self.doc = doc
        self.tracer = tracer
        self.setup_samples = []
        self.import_samples = []

    def _child(self, span, argv):
        if self.tracer is None:
            return run_child(argv)
        with self.tracer.span(span):
            return run_child(argv)

    def setup(self):
        for _ in range(self.doc["setup_samples"]):
            code, _, _, wall, cpu, _ = self._child("cli.setup",
                                                   _cli_argv(self.doc["setup_argv"]))
            if code != 0:
                raise RuntimeError(f"set-up invocation exited {code}")
            self.setup_samples.append((cpu, wall))
        if self.tracer is not None:
            probe = ("import time; t = time.process_time(); import weylchar.cli; "
                     "print(time.process_time() - t)")
            for _ in range(3):
                _, out, _, _, _, _ = self._child("cli.import", [sys.executable, "-c", probe])
                self.import_samples.append(float(out))

    def units(self):
        return self.doc["cycles"]

    def ops_in(self, unit):
        return len(unit)

    def run(self, cycle):
        return [(op, self._child(f"cli.{op['sub']}", _cli_argv(op["argv"]))) for op in cycle]

    def check(self, records, tally):
        import jsonschema

        schemas = {}
        self.subs = {}
        valid = total = 0
        for _, rec in records:
            for op, (code, stdout, stderr, wall, cpu, rss) in rec:
                sub = self.subs.setdefault(op["sub"], {"wall": [], "cpu": [], "rss": []})
                sub["wall"].append(wall)
                sub["cpu"].append(cpu)
                sub["rss"].append(rss)
                name = op["argv"][0] if code == 0 else "error"
                if name not in schemas:
                    with open(ROOT / "docs" / "schemas" / f"{name}.schema.json") as fh:
                        schemas[name] = json.load(fh)
                try:
                    jsonschema.validate(json.loads(stdout), schemas[name])
                    schema_ok = True
                except (ValueError, jsonschema.ValidationError):
                    schema_ok = False
                total += 1
                valid += schema_ok
                if code not in CLI_OK_EXITS or "Traceback" in stderr:
                    outcome = "raised"
                elif not schema_ok:
                    outcome = "wrong" if code == 0 else "raised"
                else:
                    outcome = "ok"
                tally.add(1, op["sub"], outcome)
        self.schema_valid_ratio = valid / total if total else 0.0


WORKLOADS = {"sweep": Sweep, "points": Points, "spectral": Spectral, "cli": Cli,
             "ill_conditioned": Points, "cli_errors": Cli}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "measure"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--units", type=int, default=None)
    args = ap.parse_args(argv)
    doc = json.load(sys.stdin)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cls = WORKLOADS[args.workload]
    wl = cls(doc, tracer) if cls is Cli else cls(doc)
    t_start = cpu_time()
    wl.setup()
    result = {"setup_cpu_s": cpu_time(), "setup_end": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    records = []
    unit_rates = []  # (ops / CPU s, ops / wall s) of each unit
    ops = 0
    wall_end = time.perf_counter()
    t_ops = t_end = cpu_time()
    for unit in wl.units():
        if args.units is not None:
            if len(records) >= args.units:
                break
        elif t_end - t_ops >= args.seconds:
            break
        records.append((unit, wl.run(unit)))
        n = wl.ops_in(unit)
        t_unit, wall_unit = cpu_time(), time.perf_counter()
        unit_rates.append((n / (t_unit - t_end), n / (wall_unit - wall_end)))
        t_end, wall_end = t_unit, wall_unit
        ops += n
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(t_end - t_start)

    tally = Tally()
    wl.check(records, tally)
    result.update({
        "units": len(records),
        "ops": ops,
        "unit_rates": unit_rates,
        "cpu_s": t_end - t_start,
        "peak_rss_mb": peak_rss,
        "tally": tally.to_dict(),
    })
    if isinstance(wl, Cli):
        result["setup_samples"] = wl.setup_samples
        result["import_samples"] = wl.import_samples
        result["schema_valid_ratio"] = wl.schema_valid_ratio
        result["subs"] = {k: {"wall_s": statistics.median(v["wall"]),
                              "cpu_s": statistics.median(v["cpu"]), "rss_mb": max(v["rss"])}
                          for k, v in wl.subs.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
