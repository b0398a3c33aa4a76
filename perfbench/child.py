"""One benchmark command in a fresh interpreter.

Usage: ``child.py SPAWN RECORD TRACE KIND [ARGS...]``

SPAWN is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide on Linux), RECORD the file this process writes its
timings to, and TRACE ``1`` to install the layer wrappers from
``tracing.py``.  KIND ``cli`` runs ``ordlab.cli.main(ARGS)``; KIND
``enumerate N`` enumerates the lattices on N elements and their
isomorphism classes.  Standard output is exactly the command's output.
"""

import sys
import time


def _enumerate(n: int) -> int:
    import json

    from ordlab import catalog

    lattices = catalog.all_lattices(n)
    classes = catalog.iso_representatives(lattices)
    doc = {"posets": len(catalog.all_posets(n)), "lattices": len(lattices), "classes": len(classes)}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def main() -> int:
    spawn, record, trace, kind, args = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
    import_start = time.monotonic()
    import ordlab  # noqa: F401
    import ordlab.cli

    ready = time.monotonic()
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_span("command " + " ".join([kind, *args]))
    try:
        if kind == "cli":
            code = ordlab.cli.main(args)
        elif kind == "enumerate":
            code = _enumerate(int(args[0]))
        else:
            raise SystemExit(f"unknown command kind {kind!r}")
    finally:
        # the record is written even when the command raises, so the
        # parent sees the failure as a wrong exit code
        sys.stdout.flush()
        _write_record(record, spawn, import_start, ready, tracer)
    return code


def _write_record(record: str, spawn: float, import_start: float, ready: float, tracer) -> None:
    import json
    import resource

    doc = {
        "setup_s": ready - spawn,
        "import_s": ready - import_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.end_span()
        doc["trace"] = tracer.export()
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
