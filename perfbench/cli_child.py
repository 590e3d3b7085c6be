"""Run ``l1pcp.cli.main`` in this process with spans or tracemalloc on.

    python perfbench/cli_child.py --spans OUT.json -- decompose m.dmat ...
    python perfbench/cli_child.py --tracemalloc OUT.json -- decompose m.dmat ...

``--spans`` installs the span wrappers before the CLI runs and writes the
recorded spans to OUT.json; ``--tracemalloc`` writes the tracemalloc peak in
bytes. The exit code is the CLI's.
"""

import json
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import l1pcp.cli  # noqa: E402
from spans import Recorder  # noqa: E402


def main(argv):
    if len(argv) < 3 or argv[0] not in ("--spans", "--tracemalloc") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    mode, out, cli_argv = argv[0], Path(argv[1]), argv[3:]
    if mode == "--spans":
        recorder = Recorder()
        recorder.install()
        try:
            code = l1pcp.cli.main(cli_argv)
        finally:
            recorder.uninstall()
            out.write_text(json.dumps({"spans": [s.to_json() for s in recorder.spans],
                                       "absent": sorted(recorder.absent)}))
        return code
    tracemalloc.start()
    try:
        code = l1pcp.cli.main(cli_argv)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.write_text(json.dumps({"peak_bytes": peak}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
