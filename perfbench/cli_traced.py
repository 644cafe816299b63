"""Run one equichord CLI command in this fresh interpreter with span tracing on.

Usage: PERFBENCH_SPANS=<file> python3 perfbench/cli_traced.py <equichord args...>

The wrappers are installed after the (cold) import and before
``equichord.cli.main`` runs, so layer timings stay cold as in an untraced
``python -m equichord.cli`` process.  The per-name aggregate, the worst
accuracies and the raw spans are written to PERFBENCH_SPANS on exit; stdout,
stderr and the exit code are the command's own.
"""

import json
import os
import sys

import spans

import equichord.cli


class CommandFailed(Exception):
    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def run_command():
    """Run the command as ``python -m equichord.cli`` would; raise CommandFailed on a nonzero exit.

    click's standalone mode ends with SystemExit even on success; turning it
    into a return (exit 0) or CommandFailed lets the ``cli.main`` span record
    the command's real outcome.
    """
    try:
        equichord.cli.main.main(args=sys.argv[1:], prog_name="equichord", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        if code:
            raise CommandFailed(code) from None


def main() -> int:
    tracer = spans.Tracer()
    tracer.prepare()
    tracer.install()
    tracer.task = 0
    code = 0
    try:
        tracer.span("cli.main", run_command)
    except CommandFailed as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"aggregate": tracer.aggregate(), "worst": tracer.worst,
                       "names": sorted(tracer.names), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
