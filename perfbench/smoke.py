"""Smoke test of the benchmark harness on the Fano plane.

    python3 perfbench/smoke.py

Runs each workload kind once on Fano, over GF(3) for the fractional code
and GF(2) for the scalar one, untraced and traced, and checks that:

* the result line has exactly the keys the benchmark contract names, and
  every output check passes;
* the metrics match ``BENCHMARK.json`` by name and unit, and every metric
  of a layer the workload runs is nonzero;
* every span has an id, a parent id, a name, a start and an end, and lies
  inside its parent;
* a wrong reference digest makes ``code`` and ``build`` fail.

Exits with code 1 and names each broken expectation otherwise.
"""

from __future__ import annotations

import json
import sys

import run

# metrics nonzero on every workload, and on each kind in addition
EVERYWHERE = (
    "cli.import_s", "designs.generate_s", "network.build_s", "network.edges",
    "coding.encoder_nnz", "coding.encoder_cells",
)
CODE_PATH = (
    "coding.build_s", "verify.transfer_s", "verify.partial_sum_s", "verify.block_sum_s",
    "field.matmul_calls", "field.matmul_s", "field.matmul_macs",
    "field.row_space_calls", "field.row_space_s", "field.row_space_cells",
)
RUNS_ON = {
    "code": CODE_PATH,
    "code+build": CODE_PATH + ("network.validate_s", "network.export_json_s", "network.json_bytes"),
    "simulate-file": (
        "coding.build_s", "coding.to_json_s", "coding.from_json_s", "coding.json_bytes",
        "verify.simulate_s",
    ),
}
SMOKE = (
    run.Workload("fano-gf3-code", "code", ("--fano",), 3),
    run.Workload("fano-gf2-build", "code+build", ("--fano",), 2),
    run.Workload("fano-gf3-sim", "simulate-file", ("--fano",), 3),
)
SEED = 11

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_result(w: run.Workload, result: dict, declared: list[dict], trace: bool) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{w.name}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{w.name}: outputs failed their checks")
    expect(result["attempted"] >= 1, f"{w.name}: nothing attempted")
    metrics = result["metrics"]
    expect(
        {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in metrics.items()},
        f"{w.name}: metrics differ from BENCHMARK.json (trace={int(trace)})",
    )
    nonzero = RUNS_ON[w.kind] + EVERYWHERE if trace else tuple(metrics)
    for name in nonzero:
        expect(metrics.get(name, {}).get("value", 0) > 0, f"{w.name}: {name} is not positive")


def check_spans(w: run.Workload) -> None:
    record = json.loads((run.WORK / f"trace-{w.name}-seed{SEED}.json").read_text())
    for trace in record["traces"]:
        spans = trace["spans"]
        expect(spans and {s["name"] for s in spans} >= {"cli.main"}, f"{w.name}: no cli.main span")
        for s in spans:
            if not {"id", "parent", "name", "start", "end"} <= set(s):
                expect(False, f"{w.name}: span without id, parent, name, start and end: {s}")
                continue
            expect(s["end"] >= s["start"], f"{w.name}: span {s['id']} ends before it starts")
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                inside = parent["start"] <= s["start"] and s["end"] <= parent["end"]
                expect(s["parent"] < s["id"] and inside, f"{w.name}: span {s['id']} outside its parent")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in SMOKE:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(w, SEED, 0, trace, None)["result"]
            check_result(w, result, declared[key], trace)
        check_spans(w)
    wrong = {"sha256": {"code.stdout": "0" * 64, "build.stdout": "0" * 64, "build.json": "0" * 64}}
    result = run.run(SMOKE[1], SEED, 0, False, wrong)["result"]
    expect(not result["correct"] and result["failed"] == result["attempted"], "wrong digests pass")
    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
