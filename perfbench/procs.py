"""Child processes of the benchmark: fresh interpreters and the server.

Every child runs from the checkout root with ``src`` on its path and
its temporary files inside the benchmark's work directory, so a run
reads and writes only inside the checkout.  Each one is stopped and
waited for before its caller returns.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

from repro.obs import monotonic

#: How long a started server may take to accept a connection.
READY_TIMEOUT_S = 120.0


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of every child: ``src`` importable, temp files in ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    return env


def stop(proc: subprocess.Popen, *, sig: int = signal.SIGINT, timeout: float = 10.0) -> int:
    """Signal ``proc``, wait for it, kill it if it does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def launch_server(
    root: Path, work: Path, store: Path, *, trace_dir: Path | None = None
) -> tuple[subprocess.Popen, int, float]:
    """Start the scenario service over ``store``; ``(proc, port, setup_s)``.

    Untraced, this is the ``serve`` command itself.  Traced, it is
    ``serve_traced.py``, which installs the layer wrappers and then runs
    the same command.  Set-up time runs from launch until the server
    accepts a connection.
    """
    serve = ["serve", str(store), "--workers", "2", "--port", "0"]
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro.experiments", *serve]
    else:
        script = Path(__file__).with_name("serve_traced.py")
        argv = [sys.executable, str(script), "--trace-dir", str(trace_dir), *serve]
    started = monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=root,
        env=child_env(root, work),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stderr is not None
        line = proc.stderr.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}{proc.stderr.read()}")
        port = int(line.strip().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=READY_TIMEOUT_S):
            pass
        setup_s = monotonic() - started
        # Keep the pipe drained so a chatty server can never block on it.
        threading.Thread(target=proc.stderr.read, name="server-stderr", daemon=True).start()
    except BaseException:
        stop(proc, sig=signal.SIGKILL)
        raise
    return proc, port, setup_s


def time_to_ready(argv: list[str], root: Path, work: Path) -> tuple[subprocess.Popen, float]:
    """Launch ``argv`` and wait for its ``ready`` line; ``(proc, seconds)``."""
    started = monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=root,
        env=child_env(root, work),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if line.strip() != "ready":
        stop(proc, sig=signal.SIGKILL)
        raise RuntimeError(f"{argv[2:4]} failed during set-up: {line!r}")
    return proc, monotonic() - started
