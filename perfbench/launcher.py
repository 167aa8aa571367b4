"""Run the loopgas CLI once with the benchmark's tracer installed.

    python3 -X importtime perfbench/launcher.py <loopgas CLI arguments>
    python3 -X importtime perfbench/launcher.py --import-only

Used for the traced run of the subprocess workloads, in place of
``python -m loopgas.cli``.  Stdout and the exit code are the CLI's own.  The
last line on stderr is ``perfbench-trace {json}``: the per-layer sums of this
process, plus the interpreter start (from the parent's spawn time in
``PERFBENCH_SPAWN_T``), the import of ``loopgas.cli`` and the time in
``loopgas.cli.main``, all in ms.
"""

import time

_WALL0 = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402  (perfbench/ is sys.path[0])

MARK = "perfbench-trace "


def main(argv):
    spawn = float(os.environ.get("PERFBENCH_SPAWN_T", _WALL0))
    t_imp = time.perf_counter()
    import loopgas.cli as cli
    import_ms = (time.perf_counter() - t_imp) * 1e3
    tracer = tr.Tracer()
    tr.install(tracer)
    code, main_ms = 0, 0.0
    if argv != ["--import-only"]:
        t_main = time.perf_counter()
        with tracer.active():
            code = cli.main(argv)
        main_ms = (time.perf_counter() - t_main) * 1e3
        sys.stdout.flush()
    sums = tracer.metrics()
    sums["cli.interp_ms"] = (_WALL0 - spawn) * 1e3
    sums["cli.import_ms"] = import_ms
    sums["cli.main_ms"] = main_ms
    print(MARK + json.dumps(sums), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
