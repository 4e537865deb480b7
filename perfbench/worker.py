"""Run isacwave CLI requests one after another in a single process.

Usage: python3 perfbench/worker.py JOB.json

The job file names the package source directory, the requests (argv
lists for ``isacwave.cli.main``), where to write the result, and
optionally where to write a trace.  The worker imports ``isacwave.cli``
and reads the config file of the first request; the moment after that is
its ``ready`` time on the system-wide monotonic clock, so the launcher can
compute set-up time from its own spawn time.  With ``"probe": true`` the
worker stops there.  Each request is timed on the same clock.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _config_path(argv: list) -> str:
    return argv[argv.index("--config") + 1]


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import isacwave.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"isacwave was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    requests = job["requests"]
    with open(_config_path(requests[0]), encoding="utf-8") as handle:
        json.load(handle)
    result = {"ready": time.monotonic(), "requests": []}

    if not job.get("probe"):
        tracer = None
        if job.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            for i, argv in enumerate(requests):
                if tracer is not None:
                    tracer.request = i
                error = None
                start = time.monotonic()
                try:
                    code = cli.main(argv)
                except Exception:  # the request fails; later ones still run
                    code = None
                    error = traceback.format_exc(limit=8)
                end = time.monotonic()
                result["requests"].append(
                    {"code": code, "start": start, "end": end, "error": error})
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            with open(job["trace"], "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)

    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
