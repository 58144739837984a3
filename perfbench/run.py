"""Benchmark of the sumnet command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is the ``sumnet``
package under ``src/``, started through its console entry point. Without
that tree the benchmark exits with code 2 and prints no result.

A workload is a fixed sequence of ``sumnet`` invocations; one *pass* runs
it once. The seed reaches the program only through ``simulate --seed``.

``--trace 0`` measures what a user sees. One untimed child warms the
bytecode cache and reports the machine context. Then the set-up child
(``prepare.py``: a fresh ``import sumnet`` plus the workload's input
documents) is timed at least ``SETUP_REPEATS`` times and for at least
``SETUP_SECONDS``. Then passes run, one child at a time, until
``--seconds`` have gone by. Reported:

* ``pass_ref_s``: the wall time of a pass, first child spawn to last child
  exit, at the reference speed (see below); median over passes;
* ``peak_rss_mb``: the largest peak RSS of one child in the run, taken
  from that child's own ``os.wait4`` rusage. A child's peak differs by
  about 4% from one start to the next, so the run's largest is steadier
  than a median over passes;
* ``setup_s``: one set-up child, spawn to exit, at the reference speed;
  median over set-ups;
* ``artifact_mb``: bytes the workload emits, median over passes: every
  invocation's stdout plus the documents it writes (the network JSON of
  ``build --json``, the code document ``simulate --code`` reads).

Reference speed: the host's speed drifts by up to 40% over minutes, and a
whole run can fall in a slow spell, so raw wall times of separate runs
spread by more than any useful bound. A fixed calibration task
(``calibration_s``) is therefore timed in this process just before and
after every pass and set-up child, and each wall time is multiplied by
``CALIBRATION_REF_S`` over the mean of those two. The program's work and
the calibration drift alike, so the product is steadier. The raw wall and
calibration times are in the context line.

``--trace 1`` gives the per-layer metrics. It alternates an untraced pass
with a traced pass (``traced.py``: the same invocations inside one process,
with spans around each layer's entry points) until ``--seconds`` have gone
by, and reports low medians, so that counts stay whole. The spans, the
sizes and the output digests of the run go to
``.bench_work/trace-<workload>-seed<seed>.json``.

Every invocation's output is checked: exit code 0, every verdict field
true, and for ``code`` and ``build`` the sha256 of stdout (and of the
written network JSON) equal to ``reference.json``. ``simulate`` stdout
embeds the seed, so its ``trials`` and ``seed`` fields are checked
instead. ``failed`` counts the invocations that fail any check.
``reference.json`` also records the sizes each workload produced when the
benchmark was defined; a traced run that sees other sizes reports them on
stderr.

The last line of stdout is the result; the line before it records the
machine context, the sample count and, untraced, every pass and set-up
time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BIG_PRIME = 2147483647
SIM_TRIALS = 1000
# set-up is timed at least SETUP_REPEATS times and for at least SETUP_SECONDS
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# every run must end within 180 s; no child or pass starts past this
RUN_LIMIT_S = 165.0
# calibration_s() takes about this long on the 2-vCPU Xeon VM on which the
# benchmark was defined; reported times are seconds at that speed
CALIBRATION_REF_S = 0.1
ENTRY_POINT = "from sumnet.cli import console_main; console_main()"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
VERDICTS = ("transfer_check", "partial_sum_recoverable", "block_sum_recoverable", "valid", "ok")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "code", "code+build" or "simulate-file"
    design: tuple[str, ...]  # CLI design source
    field: int


# frac-code: fractional regime at a small prime; ~95% of the time is exact
#   elimination and matmul in verify, so field kernel work shows here first.
# frac-bigprime: the same code near 2^31, where FieldMatrix.__matmul__ takes
#   its object-dtype path; a kernel that helps small p and costs large p
#   shows here as a regression.
# scalar-wide: 1x1 codes on the widest network (119,595 edges) plus 10 MB of
#   network JSON; per-edge Python work, which kernel changes should not move.
# sim-file: a 12 MB code document parsed and simulated, no elimination; the
#   read path that serialization and exact-simulation changes move.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("frac-code", "code", ("--sts", "15"), 3),
        Workload("frac-bigprime", "code", ("--sts", "15"), BIG_PRIME),
        Workload("scalar-wide", "code+build", ("--sts", "45"), 2),
        Workload("sim-file", "simulate-file", ("--sts", "15"), BIG_PRIME),
    )
}

END_TO_END_UNITS = {"pass_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "artifact_mb": "MB"}

# metric -> (span names, reduction, size key). "s" sums span seconds,
# "calls" counts spans, "sum"/"max" reduce a size recorded on the spans.
# Predicted effects, per layer: verify.* and field.* move pass_ref_s on the
# frac-* workloads (field.* stays flat on sim-file); network.* moves
# pass_ref_s and artifact_mb on scalar-wide; coding.to_json_s moves setup_s
# and coding.from_json_s / json_bytes / encoder_* move pass_ref_s,
# peak_rss_mb and artifact_mb on sim-file; designs.generate_s should move
# nothing; cli.import_s moves pass_ref_s everywhere, most on sim-file and
# scalar-wide.
LAYER_METRICS = {
    "designs.generate_s": (("designs.generate",), "s", None),
    "network.build_s": (("network.build",), "s", None),
    "network.validate_s": (("network.validate",), "s", None),
    "network.export_json_s": (("network.export_json",), "s", None),
    "network.edges": (("network.build",), "max", "edges"),
    "network.json_bytes": (("network.export_json",), "max", "bytes"),
    "coding.build_s": (("coding.build",), "s", None),
    "coding.to_json_s": (("coding.to_json",), "s", None),
    "coding.from_json_s": (("coding.from_json",), "s", None),
    "coding.json_bytes": (("coding.to_json", "coding.from_json"), "max", "bytes"),
    "coding.encoder_nnz": (("coding.build", "coding.from_json"), "max", "encoder_nnz"),
    "coding.encoder_cells": (("coding.build", "coding.from_json"), "max", "encoder_cells"),
    "verify.transfer_s": (("verify.transfer",), "s", None),
    "verify.partial_sum_s": (("verify.partial_sum",), "s", None),
    "verify.block_sum_s": (("verify.block_sum",), "s", None),
    "verify.simulate_s": (("verify.simulate",), "s", None),
    "verify.failures": (
        ("verify.transfer", "verify.partial_sum", "verify.block_sum", "verify.simulate"),
        "sum",
        "failures",
    ),
    "field.matmul_calls": (("field.matmul",), "calls", None),
    "field.matmul_s": (("field.matmul",), "s", None),
    "field.matmul_macs": (("field.matmul",), "sum", "macs"),
    "field.row_space_calls": (("field.row_space",), "calls", None),
    "field.row_space_s": (("field.row_space",), "s", None),
    "field.row_space_cells": (("field.row_space",), "sum", "cells"),
}
BYTES_METRICS = ("network.json_bytes", "coding.json_bytes")
# sizes a workload produces, recorded in reference.json: name -> (span names, key)
SIZES = {
    "network.edges": (("network.build",), "edges"),
    "network.json_bytes": (("network.export_json",), "bytes"),
    "coding.m": (("coding.build", "coding.from_json"), "m"),
    "coding.n": (("coding.build", "coding.from_json"), "n"),
    "coding.encoders": (("coding.build", "coding.from_json"), "encoders"),
    "coding.encoder_shape": (("coding.build", "coding.from_json"), "encoder_shape"),
    "coding.encoder_nnz": (("coding.build", "coding.from_json"), "encoder_nnz"),
    "coding.json_bytes": (("coding.to_json", "coding.from_json"), "bytes"),
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric in BYTES_METRICS else "count"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    document: Path | None = None  # the file the invocation writes


def code_document_path(w: Workload, work: Path) -> Path | None:
    return work / "code.json" if w.kind == "simulate-file" else None


def pass_invocations(w: Workload, work: Path, seed: int) -> list[Invocation]:
    code = ("code", *w.design, "--field", str(w.field), "--format", "json")
    if w.kind == "code":
        return [Invocation(code)]
    if w.kind == "code+build":
        network = work / "network.json"
        build = ("build", *w.design, "--format", "json", "--json", str(network))
        return [Invocation(code), Invocation(build, network)]
    simulate = (
        "simulate", *w.design, "--field", str(w.field),
        "--code", str(code_document_path(w, work)),
        "--trials", str(SIM_TRIALS), "--seed", str(seed), "--format", "json",
    )
    return [Invocation(simulate)]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """The caller's environment, with ``src`` first on the import path and
    BLAS threads capped at the number of usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            env[var] = str(cores)
    return env


def calibration_s() -> float:
    """Seconds this process takes for a fixed task made of the kinds of work
    that dominate the program: interpreted integer arithmetic, row updates
    of a small int64 array and JSON. It uses nothing of the program."""
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) % 1_000_003
    a = np.arange(50 * 750, dtype=np.int64).reshape(50, 750) % 7
    for c in range(150):
        a = (a - np.outer(a[:, c % 50], a[c % 50])) % 7
    json.loads(json.dumps([[i, 7 * i, str(i)] for i in range(15_000)]))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration: float) -> float:
    """Wall seconds rescaled to the speed at which the calibration task
    takes ``CALIBRATION_REF_S``."""
    return seconds * CALIBRATION_REF_S / calibration


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reduce_spans(spans: list[dict], names: tuple[str, ...], how: str, key: str | None):
    chosen = [s for s in spans if s["name"] in names]
    if how == "s":
        return sum((s["end"] - s["start"] for s in chosen), 0.0)
    if how == "calls":
        return len(chosen)
    values = [s["attrs"][key] for s in chosen if key in s["attrs"]]
    if how == "sum":
        return sum(values)
    return max(values, default=0)


def layer_metrics(trace: dict, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A metric whose entry points the
    program no longer has is absent; one the workload never calls is 0."""
    spans, wrapped = trace["spans"], set(trace["wrapped"])
    metrics = {"cli.import_s": trace["import_s"]}
    for metric, (names, how, key) in LAYER_METRICS.items():
        if wrapped.intersection(names):
            metrics[metric] = reduce_spans(spans, names, how, key)
    # a traced pass imports once; the untraced pass imports once per child
    mains = [s for s in spans if s["name"] == "cli.main"]
    traced_total = sum(trace["import_s"] + s["end"] - s["start"] for s in mains)
    metrics["trace.overhead_s"] = traced_total - pass_s
    return metrics


def trace_sizes(trace: dict) -> dict:
    sizes = {}
    for name, (spans, key) in SIZES.items():
        values = [s["attrs"][key] for s in trace["spans"] if s["name"] in spans and key in s["attrs"]]
        if values:
            sizes[name] = values[-1]
    return sizes


class Run:
    """One benchmark run of one workload: spawns, checks and counts."""

    def __init__(self, w: Workload, seed: int, reference: dict | None, work: Path):
        self.w, self.seed, self.reference, self.work = w, seed, reference, work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.invocations = pass_invocations(w, work, seed)
        self.code_doc = code_document_path(w, work)
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True
        self.digests: dict[str, str] = {}

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """Run one child to its end: (wall seconds, exit code, peak RSS in MB)."""
        limit = max(1.0, self.deadline + 10.0 - time.monotonic())
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        # reaped by wait4, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def prepare_spec(self) -> dict:
        doc = str(self.code_doc) if self.code_doc else None
        return {"design": list(self.w.design), "field": self.w.field, "code_doc": doc}

    def context(self) -> dict:
        path = self.work / "context.out"
        _, code, _ = self.spawn([sys.executable, str(HERE / "prepare.py"), "--context"], path)
        found = json.loads(path.read_bytes()) if code == 0 else {}
        return {"nproc": nproc(), "machine": platform.machine(), **found}

    def setup(self) -> tuple[float, float]:
        """One set-up child: (seconds, the calibration time around it)."""
        argv = [sys.executable, str(HERE / "prepare.py"), json.dumps(self.prepare_spec())]
        before = calibration_s()
        elapsed, code, _ = self.spawn(argv, self.work / "setup.out")
        calibration = (before + calibration_s()) / 2
        if code != 0:
            self.problem("setup", f"exit code {code}")
            self.setup_ok = False
        elif self.code_doc is not None:
            if not self.matches("setup.code_json", self.code_doc.read_bytes()):
                self.problem("setup", "code document digest differs from reference")
                self.setup_ok = False
        return elapsed, calibration

    def problem(self, what: str, detail: str) -> None:
        print(f"perfbench: {self.w.name}: {what}: {detail}", file=sys.stderr)

    def matches(self, key: str, data: bytes) -> bool:
        digest = self.digests[key] = sha256(data)
        return self.reference is None or self.reference["sha256"][key] == digest

    def check(self, inv: Invocation, code: int, stdout: bytes) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
        found = [f"{k} is {report[k]!r}" for k in VERDICTS if k in report and report[k] is not True]
        command = inv.argv[0]
        if command == "simulate":
            if (report.get("trials"), report.get("seed")) != (SIM_TRIALS, self.seed):
                found.append("trials or seed differ from the request")
        elif not self.matches(f"{command}.stdout", stdout):
            found.append("stdout digest differs from reference")
        if inv.document is not None and not self.matches(f"{command}.json", inv.document.read_bytes()):
            found.append("written document digest differs from reference")
        return found

    def count(self, inv: Invocation, code: int, stdout: bytes) -> None:
        self.attempted += 1
        try:
            found = self.check(inv, code, stdout)
        except OSError as exc:  # a document the invocation should have written
            found = [str(exc)]
        if found:
            self.failed += 1
            self.problem(inv.argv[0], "; ".join(found))

    def run_pass(self) -> tuple[float, float, int, float]:
        """One untraced pass: (seconds, peak RSS in MB, bytes emitted, and
        the calibration time around it)."""
        results = []
        before = calibration_s()
        start = time.perf_counter()
        for i, inv in enumerate(self.invocations):
            path = self.work / f"pass-{i}.out"
            _, code, rss = self.spawn([sys.executable, "-c", ENTRY_POINT, *inv.argv], path)
            results.append((inv, code, rss, path))
        elapsed = time.perf_counter() - start
        calibration = (before + calibration_s()) / 2
        emitted = self.code_doc.stat().st_size if self.code_doc and self.code_doc.exists() else 0
        for inv, code, _, path in results:
            stdout = path.read_bytes()
            emitted += len(stdout)
            if inv.document is not None and inv.document.exists():
                emitted += inv.document.stat().st_size
            self.count(inv, code, stdout)
        return elapsed, max(rss for _, _, rss, _ in results), emitted, calibration

    def run_traced(self) -> dict | None:
        out = self.work / "trace.json"
        out.unlink(missing_ok=True)
        stdout_paths = [self.work / f"traced-{i}.out" for i in range(len(self.invocations))]
        spec = {
            **self.prepare_spec(),
            "invocations": [[list(inv.argv), str(p)] for inv, p in zip(self.invocations, stdout_paths)],
            "out": str(out),
        }
        _, code, _ = self.spawn(
            [sys.executable, str(HERE / "traced.py"), json.dumps(spec)], self.work / "traced.out"
        )
        trace = json.loads(out.read_bytes()) if code == 0 and out.exists() else None
        for i, inv in enumerate(self.invocations):
            if trace is None:
                self.attempted += 1
                self.failed += 1
                self.problem("traced run", f"exit code {code}")
            else:
                self.count(inv, trace["exit_codes"][i], stdout_paths[i].read_bytes())
        return trace

    def time_left(self, needed: float) -> bool:
        return time.monotonic() + needed < self.deadline

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setups = []
        start = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            setups.append(self.setup())
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            if time.perf_counter() - start >= seconds or not self.time_left(passes[-1][0]):
                break
        values = {
            "pass_ref_s": statistics.median(at_reference_speed(p[0], p[3]) for p in passes),
            "peak_rss_mb": max(p[1] for p in passes),
            "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
            "artifact_mb": statistics.median(p[2] for p in passes) / 1e6,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        details = {
            "samples": len(passes),
            "pass_s": [p[0] for p in passes],
            "pass_calibration_s": [p[3] for p in passes],
            "setup_s": [s[0] for s in setups],
            "setup_calibration_s": [s[1] for s in setups],
        }
        return metrics, details

    def measure_layers(self, seconds: float) -> tuple[dict, dict, list[dict]]:
        self.setup()
        samples, traces = [], []
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            pass_s = self.run_pass()[0]
            trace = self.run_traced()
            if trace is not None:
                traces.append(trace)
                samples.append(layer_metrics(trace, pass_s))
            if time.perf_counter() - start >= seconds or not self.time_left(time.perf_counter() - lap):
                break
        names = samples[-1] if samples else {}
        metrics = {
            k: {"value": statistics.median_low(s[k] for s in samples), "unit": layer_unit(k)}
            for k in names
        }
        return metrics, {"samples": len(samples)}, traces


def run(w: Workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> dict:
    """Run one workload; returns the result and the context line's fields."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir()
    try:
        r = Run(w, seed, reference, work)
        info = {"workload": w.name, "seed": seed, "trace": int(trace), "context": r.context()}
        if trace:
            metrics, details, traces = r.measure_layers(seconds)
            sizes = trace_sizes(traces[-1]) if traces else {}
            expected = (reference or {}).get("sizes", sizes)
            for name in sorted(set(sizes) | set(expected)):
                if sizes.get(name) != expected.get(name):
                    r.problem("size", f"{name} is {sizes.get(name)}, reference has {expected.get(name)}")
            record = {**info, "sizes": sizes, "sha256": r.digests, "traces": traces}
            (WORK / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(record, indent=1))
        else:
            metrics, details = r.measure(seconds)
        info.update(details)
        result = {
            "correct": r.setup_ok and r.failed == 0 and details["samples"] > 0,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": metrics,
        }
        return {"info": info, "result": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sumnet" / "cli.py").is_file():
        print(f"perfbench: no sumnet source tree at {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
