"""Set-up child of the benchmark: one fresh interpreter per call.

``python3 prepare.py SPEC`` imports sumnet and writes the workload's input
documents; the benchmark times the whole child as ``setup_s``.
``python3 prepare.py --context`` prints the interpreter, numpy and BLAS
versions as JSON instead.

SPEC is a JSON object with ``design`` (the CLI design source, e.g.
``["--sts", "15"]``), ``field`` and ``code_doc`` (where to write the
``sumnet.code/1`` document, or null when the workload reads none).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path


def code_document(ns, design: list[str], p: int) -> str:
    """The ``sumnet.code/1`` text for ``design`` over GF(p).

    ``ns`` is any namespace binding the public sumnet names used here (the
    package, or the CLI module whose bindings the traced run wraps).
    """
    d = ns.fano() if design == ["--fano"] else ns.sts_bose(int(design[1]))
    return ns.code_to_json(ns.build_code(ns.build_sum_network(d), ns.PrimeField(p)))


def context() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 only prints its config
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    if argv == ["--context"]:
        print(json.dumps(context(), sort_keys=True))
        return 0
    spec = json.loads(argv[0])
    import sumnet

    if spec["code_doc"]:
        text = code_document(sumnet, spec["design"], spec["field"])
        Path(spec["code_doc"]).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
