"""CLI entry point: ``python -m repro.service`` (or ``runner serve``)."""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine.session import SessionRegistry
from repro.service.http import SweepService
from repro.service.scheduler import SweepScheduler

__all__ = ["serve_main"]


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve design-space sweep queries over HTTP/JSON.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8742,
        help="bind port; 0 picks a free port (default: 8742)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="scheduler worker threads (default: 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per measurement session, for its trace "
        "synthesis and miss-cube builds (default: 1)",
    )
    parser.add_argument(
        "--spool-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal every sweep under DIR so failed or killed jobs "
        "resume on resubmission (default: no durability layer)",
    )
    parser.add_argument(
        "--max-disk-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU byte budget for the service's memo of finished answers; "
        "each scale's session artifacts are bounded by the scale table "
        "(default: unbounded)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.max_disk_bytes is not None and args.max_disk_bytes < 1:
        parser.error(
            f"--max-disk-bytes must be at least 1, got {args.max_disk_bytes}"
        )
    scheduler = SweepScheduler(
        registry=SessionRegistry(),
        workers=args.workers,
        spool_dir=args.spool_dir,
        max_disk_bytes=args.max_disk_bytes,
        session_jobs=args.jobs,
    )
    service = SweepService(scheduler, host=args.host, port=args.port)

    async def run() -> None:
        await service.start()
        # SIGTERM, and SIGINT even where it was inherited as ignored (a
        # background job of a non-interactive shell), end the wait; stop()
        # then closes the server, joins the scheduler threads and reaps
        # every session's pool, and the process exits 0.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        print(
            f"serving sweeps on http://{service.host}:{service.port} "
            f"(workers={args.workers}, jobs={args.jobs})",
            flush=True,
        )
        try:
            await stopping.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
