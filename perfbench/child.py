"""Child processes of the benchmark; ``run.py`` times them from outside.

    python3 perfbench/child.py run MARK_FILE [--setup-only] BACKFLOW_ARGS...
        Run the ``backflow`` CLI as ``python -m backflow.cli BACKFLOW_ARGS``
        does, and write the monotonic clock reading at its first operation
        to MARK_FILE: the first call of ``FIRST_OPERATION`` (the first batch
        of repeats of a sweep, the first process the oracle verifies).  The
        parent's launch time subtracted from it is the run's set-up time.
        With ``--setup-only``, exit 0 right there.  Exits with the CLI's
        exit code.

    python3 perfbench/child.py trace TRACE_JSON BACKFLOW_ARGS...
        Run the ``backflow`` CLI with every layer in ``tracer.LAYERS``
        wrapped, then write the layer totals and counters to TRACE_JSON.
        Exits with the CLI's exit code.

``backflow`` must be importable (``PYTHONPATH=src``).
"""

import importlib
import json
import sys
import time

# backflow command -> the function whose first call ends set-up
FIRST_OPERATION = {"run": "protocol.collect_with_early_stop", "oracle": "comb.verify_no_backflow"}


class SetupDone(BaseException):
    """Raised at the first operation of a ``--setup-only`` run; not an error."""


def run(mark_path: str, setup_only: bool, cli_args: list[str]) -> int:
    import tracer

    from backflow import cli

    module_name, attr = FIRST_OPERATION[cli_args[0]].split(".")
    original = getattr(importlib.import_module(f"backflow.{module_name}"), attr)
    marked = []

    def first_operation(*args, **kwargs):
        if not marked:
            marked.append(time.monotonic())
            with open(mark_path, "w") as f:
                f.write(repr(marked[0]))
            if setup_only:
                raise SetupDone
        return original(*args, **kwargs)

    tracer.replace(original, first_operation)
    try:
        return cli.main(cli_args)
    except SetupDone:
        return 0


def trace(out_path: str, cli_args: list[str]) -> int:
    import tracer

    from backflow import cli

    tr = tracer.Tracer()
    missing = tracer.install(tr)
    try:
        code = cli.main(cli_args)
    finally:
        payload = {
            "missing": missing,
            "self_total_s": tr.self_total(),
            "metrics": tracer.layer_metrics(tr),
        }
        with open(out_path, "w") as f:
            json.dump(payload, f)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["run"] and len(argv) >= 3:
        setup_only = argv[2] == "--setup-only"
        cli_args = argv[3:] if setup_only else argv[2:]
        if cli_args[:1] and cli_args[0] in FIRST_OPERATION:
            return run(argv[1], setup_only, cli_args)
    if argv[:1] == ["trace"] and len(argv) >= 3:
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
