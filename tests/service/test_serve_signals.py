"""``python -m repro.service`` stops cleanly on SIGTERM and SIGINT.

Each signal closes the server; ``SweepService.stop`` then joins the
scheduler threads and reaps the session pools, and the process exits 0.
SIGINT must work even when the server inherits it as ignored, as a
background job of a non-interactive shell does.
"""

import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest


def _session_members(session_id: int):
    """Pids of the live processes in session ``session_id``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command: state, ppid, pgrp, session.
        if int(fields[3]) == session_id and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
def test_serve_exits_zero_on_signal(signum):
    # The shell ignores SIGINT for the server it execs, as it would for a
    # background job.
    ignore = "trap '' INT; " if signum == signal.SIGINT else ""
    server = subprocess.Popen(
        ["sh", "-c", f"{ignore}exec {shlex.quote(sys.executable)} -m repro.service --port 0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        banner = server.stdout.readline()
        assert banner.startswith("serving sweeps on http://127.0.0.1:"), banner
        server.send_signal(signum)
        assert server.wait(timeout=30) == 0, server.stdout.read()
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
        server.stdout.close()
    assert _session_members(server.pid) == []
