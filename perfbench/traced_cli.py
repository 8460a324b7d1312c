"""Run one ``symcone`` CLI command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py STATE_FILE COMMAND [ARGS...]

Behaves like ``python3 -m symcone COMMAND [ARGS...]`` (same output, same exit
code) and also writes the tracer's raw totals to STATE_FILE as JSON, so the
benchmark can add up the layers of its traced CLI children.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import symcone.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = symcone.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump_state()), encoding="utf-8")
    sys.exit(code)
