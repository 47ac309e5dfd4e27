"""Traced stand-in for the `dpselect` console script.

Run as `python cli_probe.py <dpselect arguments>` with dpselect importable.
It imports dpselect.cli, wraps the public functions the command line calls,
runs `dpselect.cli.entrypoint()` exactly as the console script does, then
writes its spans on standard error after the marker line and exits with the
command's exit code. Standard output is left to the command.
"""

import json
import sys

import tracing

MARKER = "@@perfbench-trace "


def main() -> int:
    tracer = tracing.Tracer()
    with tracer.span("import.dpselect"):
        import dpselect.cli
    tracing.install(tracer)
    command = sys.argv[1] if len(sys.argv) > 1 else "none"
    sys.argv[0] = "dpselect"
    code = 0
    with tracer.span(f"cli.main.{command}"):
        try:
            dpselect.cli.entrypoint()
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    sys.stderr.write("\n" + MARKER + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
