"""``python perfbench/traced_cli.py ARGS`` runs ``repro ARGS`` with layer spans.

The import of ``repro.cli`` sits at module level, as in
``python -m repro``, so spawn-context pool workers (which import the
main module) pay the same start-up in both. The spans, the instant the
import returned and the instants ``main`` started and returned are
written as JSON to ``$PERFBENCH_TRACE_OUT``.
"""

import json
import os
import sys
import time

import repro.cli

IMPORT_DONE = time.monotonic()


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.layers import install_cli
    from perfbench.spans import Tracer

    tracer = Tracer()
    install_cli(tracer)
    main_start = time.monotonic()
    index = tracer.begin("cli.main")
    try:
        code = repro.cli.main(sys.argv[1:])
    finally:
        tracer.end(index)
        main_end = time.monotonic()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as handle:
            json.dump(
                {
                    "import_done": IMPORT_DONE,
                    "main_start": main_start,
                    "main_end": main_end,
                    "spans": tracer.to_plain(),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
