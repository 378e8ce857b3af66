"""``busytime serve`` with spans around the calls into each layer.

Usage: ``python3 perfbench/traced_server.py SPANS.json`` starts the same
server as ``python -m busytime.cli serve --port 0`` and, when it stops
(SIGTERM), writes every recorded span and count to ``SPANS.json``.

A request is traced when it carries ``X-Bench-Trace: 1``; its spans are
tagged with the integer in ``X-Bench-Op``.  Other requests pass through the
wrappers untraced.
"""

from __future__ import annotations

import json
import sys

from harness import program_root


def main(spans_path: str) -> int:
    program_root()
    from busytime.cli import main as cli_main
    from busytime.service.frontend import _ServiceHandler

    from instrument import HANDLER_SPAN, Tracer, install_service_spans

    tracer = Tracer()
    install_service_spans(tracer)
    handle = _ServiceHandler.do_POST

    def do_POST(handler) -> None:  # noqa: N802 - http.server API
        op = handler.headers.get("X-Bench-Op")
        tracer.op = int(op) if op is not None else None
        tracer.enabled = handler.headers.get("X-Bench-Trace") == "1"
        try:
            tracer.span(HANDLER_SPAN, handle, handler)
        finally:
            tracer.enabled = False

    _ServiceHandler.do_POST = do_POST
    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        with open(spans_path, "w") as out:
            json.dump(tracer.dump(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
