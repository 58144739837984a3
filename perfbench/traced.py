"""Traced run of one benchmark pass, in a single process.

``python3 traced.py SPEC`` times a fresh ``import sumnet.cli``, wraps the
public entry point of every layer at the name the CLI binds (and the field
kernels at the names the ``verify`` and ``coding`` modules bind), then runs
the workload's set-up and each of its invocations through
``sumnet.cli.main`` in this process. Every call into a wrapped entry point
records a span; the sizes that drive its cost are attached after its clock
stops.

SPEC is the ``prepare.py`` spec plus ``invocations`` (a list of
``[argv, stdout_path]``) and ``out`` (where to write the trace as JSON).
An entry point missing from the program is not wrapped, and its metrics
are absent rather than zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from prepare import code_document


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end and sizes."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, sizes=None) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if sizes is not None and result is not NotImplemented:
                record["attrs"].update(sizes(args, result))
            return result

        setattr(owner, attr, traced)
        return True


def _code_sizes(code) -> dict:
    encoders = [enc.array for enc in code.encoders]
    return {
        "m": code.params.m,
        "n": code.params.n,
        "encoders": len(encoders),
        "encoder_shape": list(encoders[0].shape),
        "encoder_nnz": sum(int((a != 0).sum()) for a in encoders),
        "encoder_cells": sum(a.size for a in encoders),
    }


def _failures(args, result) -> dict:
    return {"failures": len(result.failures)}


# (span name, name bound in sumnet.cli, sizes of one call)
CLI_ENTRY_POINTS = (
    ("designs.generate", "sts_bose", None),
    ("designs.generate", "fano", None),
    ("network.build", "build_sum_network", lambda args, net: {"edges": len(net.edges)}),
    ("network.validate", "network_validate", None),
    ("network.export_json", "network_export_json", lambda args, s: {"bytes": len(s.encode())}),
    ("coding.build", "build_code", lambda args, code: _code_sizes(code)),
    ("coding.to_json", "code_to_json", lambda args, s: {"bytes": len(s.encode())}),
    (
        "coding.from_json",
        "code_from_json",
        lambda args, code: {"bytes": len(args[0].encode()), **_code_sizes(code)},
    ),
    ("verify.transfer", "transfer_check", _failures),
    ("verify.partial_sum", "partial_sum_recoverable", _failures),
    ("verify.block_sum", "block_sum_recoverable", _failures),
    ("verify.simulate", "simulate_trials", _failures),
)


def install(tracer: Tracer, cli, modules) -> list[str]:
    """Wrap the entry points; returns the span names that were wrapped."""
    wrapped = {name for name, attr, sizes in CLI_ENTRY_POINTS if tracer.wrap(cli, attr, name, sizes)}
    classes = {id(m.FieldMatrix): m.FieldMatrix for m in modules if hasattr(m, "FieldMatrix")}
    for cls in classes.values():
        if tracer.wrap(
            cls, "__matmul__", "field.matmul",
            lambda args, out: {"macs": args[0].rows * args[0].cols * args[1].cols},
        ):
            wrapped.add("field.matmul")
    for m in modules:
        if tracer.wrap(
            m, "row_space_contains", "field.row_space",
            lambda args, out: {"cells": args[0].rows * args[0].cols},
        ):
            wrapped.add("field.row_space")
    return sorted(wrapped)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    start = time.perf_counter()
    import sumnet.cli as cli

    import_s = time.perf_counter() - start
    from sumnet import coding, verify

    tracer = Tracer()
    wrapped = install(tracer, cli, (verify, coding))
    if spec["code_doc"]:
        with tracer.span("setup"):
            Path(spec["code_doc"]).write_text(code_document(cli, spec["design"], spec["field"]))
    exit_codes = []
    for args, stdout_path in spec["invocations"]:
        out = io.StringIO()
        with tracer.span("cli.main", argv=args), contextlib.redirect_stdout(out):
            try:
                code = cli.main(args)
            except Exception:  # reported as a failed invocation, the run goes on
                traceback.print_exc()
                code = -1
        Path(stdout_path).write_bytes(out.getvalue().encode())
        exit_codes.append(code)
    trace = {"import_s": import_s, "wrapped": wrapped, "exit_codes": exit_codes, "spans": tracer.spans}
    Path(spec["out"]).write_text(json.dumps(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
