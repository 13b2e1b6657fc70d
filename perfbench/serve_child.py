"""Run ``python -m repro serve`` with the serving layer traced.

Usage: ``python perfbench/serve_child.py SPANS_OUT serve --store DIR --port 0``.
Everything after ``SPANS_OUT`` is passed to the ``repro`` command line
unchanged.  The spans are written to ``SPANS_OUT`` when the server stops
(SIGINT, the same signal that stops the untraced server).
"""

import sys

from tracing import Recorder, install_serving


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import repro.__main__ as cli

    rec = Recorder()
    install_serving(rec)
    try:
        return cli.main(argv)
    finally:
        rec.write(out)


if __name__ == "__main__":
    sys.exit(main())
