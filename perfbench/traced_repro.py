"""Run one ``repro`` command with the benchmark's span wrappers.

Usage::

    python perfbench/traced_repro.py --spans-out FILE -- experiment fig2 ...

Imports the CLI (timed as the ``cli.import`` span), wraps each layer's
public functions (:func:`spans.install`), runs ``repro.cli.main`` on
the remaining arguments (the ``cli.main`` span) and writes the
process's spans to ``FILE`` when the command returns.  The command's
exit code is passed through.
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(
            "usage: traced_repro.py --spans-out FILE -- <repro arguments>",
            file=sys.stderr,
        )
        return 2
    out, command = argv[1], argv[3:]
    recorder = spans.SpanRecorder()
    start = spans.now_ns()
    import repro.cli

    recorder.record("cli.import", start, spans.now_ns())
    spans.install(recorder, serve=command[:1] == ["serve"])
    start = spans.now_ns()
    code = 1
    try:
        code = repro.cli.main(command)
    finally:
        recorder.record("cli.main", start, spans.now_ns(), exit_code=code)
        # Top-level spans of the main thread ran inside cli.main; spans
        # that belong to a served request keep their request id instead.
        main = recorder.spans[-1]
        for span in recorder.spans[1:-1]:
            top_level = span["parent"] is None and span["req"] is None
            if top_level and span["tid"] == main["tid"]:
                span["parent"] = main["id"]
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
