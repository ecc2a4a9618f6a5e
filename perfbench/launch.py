"""Run ``nearwave.cli.main`` in this process as the console script does.

Usage: launch.py SIDECAR TRACE SUBCOMMAND [ARGS...]

Writes SIDECAR (JSON) when the command ends: the CLOCK_MONOTONIC instant
at which the command body started, the duration of ``import nearwave.cli``
and, with TRACE=1, the layer spans of ``spans.py``. CLOCK_MONOTONIC is
system wide, so the parent can subtract its own launch instant from
``body_start``.
"""

import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    sidecar, trace, *cli_args = sys.argv[1:]
    record: dict = {}
    start = now()
    import nearwave.cli
    record["import_s"] = now() - start

    tracer = None
    if trace == "1":
        from spans import ROOT, Tracer
        tracer = Tracer()
        tracer.install()

    command = nearwave.cli.main.commands[cli_args[0]]
    body = command.callback

    def timed_body(*args, **kwargs):
        record["body_start"] = now()
        return body(*args, **kwargs)

    command.callback = timed_body
    if tracer is not None:
        command.callback = tracer.span(ROOT, timed_body)

    code = 0
    try:
        nearwave.cli.main(args=cli_args, prog_name="nearwave")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code \
            if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            record["trace"] = tracer.record()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
