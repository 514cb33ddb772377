"""Answer one document in a fresh interpreter, the way ``hl-lab`` would.

Protocol on this process's own stdin/stdout: once ``hl_lab.cli`` is
imported the child prints ``ready``; it then reads one JSON request
(``argv``, ``stdin`` text, ``trace`` flag), runs ``dispatch`` on it with
stdin, stdout and stderr redirected to memory, and prints one JSON
result line.  Usage: ``python3 child.py SRC_DIR``.

Right before and right after ``dispatch`` the child also times a fixed
pure-Python loop that touches no hl-lab code (``reference_s``); the run
uses it to scale the document's time to a reference speed of the host.
"""

import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This interpreter's own peak resident set.

    ``ru_maxrss`` is not used where ``/proc`` exists: Linux carries the
    parent's peak into a child spawned with vfork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


REFERENCE_ROUNDS = 40_000


def reference_s() -> float:
    """Seconds this interpreter takes for a fixed loop of plain Python work.

    The loop does the kind of work hl-lab does (tuples, string slices,
    dict lookups) without calling into it, so its time moves only with
    the speed the shared host gives this process at that moment.  The
    garbage collector is off while it runs, so that objects a library
    import left behind do not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict = {}
    for i in range(REFERENCE_ROUNDS):
        key = (format(i % 251, "b"), i % 7)
        prefix = key[0][:3]
        table[prefix] = table.get(prefix, 0) + key[1]
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import hl_lab.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"hl_lab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()

    request = json.loads(sys.stdin.readline())
    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.realpath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(request["stdin"].encode()), encoding="utf-8")
    sys.stdout, sys.stderr = out, err
    raised = None
    before = reference_s()
    start = time.perf_counter()
    try:
        code = cli.dispatch(request["argv"])
    except SystemExit as stop:  # argparse rejects the argv
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception:  # reported as a failed document, never hidden
        code = None
        raised = traceback.format_exc()
    wall = time.perf_counter() - start
    after = reference_s()
    sys.stdout, sys.stderr = channel, sys.__stderr__

    result = {"code": code, "raised": raised, "wall_s": wall,
              "reference_s": [before, after],
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "rss_kb": peak_rss_kb(),
              "trace": tracer.dump() if tracer is not None else None}
    channel.write(json.dumps(result) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
