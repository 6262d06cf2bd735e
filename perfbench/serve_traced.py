"""``repro serve`` with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py OUT.json

Installs the wrappers, runs the daemon with the default configuration on
an ephemeral port (the same ready line as ``python -m repro serve --port
0``), and once a SIGTERM drain completes writes the per-layer totals,
the per-call service timings and the CPU seconds the daemon used to
``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (the benchmark's own module, beside this file)


def _per_call(spans, name):
    return [s.duration for s in spans if s.name == name]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = Path(argv[0])
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.service import ServiceConfig, serve

    cpu0 = time.process_time()
    code = serve(ServiceConfig())
    cpu_s = time.process_time() - cpu0
    spans = recorder.spans
    out = {
        "layers": tracing.layer_totals(spans),
        "parse_s": _per_call(spans, "service.parse"),
        "key_s": _per_call(spans, "service.key"),
        "serialize_s": _per_call(spans, "service.serialize"),
        "serialize_chars": [s.units for s in spans if s.name == "service.serialize"],
        "compute_s": _per_call(spans, "service.compute"),
        "queue_wait_s": recorder.queue_waits,
        "handled": recorder.entered,
        "cpu_s": cpu_s,
    }
    out_path.write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
