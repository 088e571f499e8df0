"""Starting processes under test and timing their way to ready."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import measure

ROOT = Path(__file__).resolve().parent.parent

#: Scratch space inside the checkout: inputs, stores, spans and results.
WORK = ROOT / ".perfbench"

#: Seconds a process under test may take to become ready.
READY_TIMEOUT_S = 120.0


def child_env() -> dict:
    """Environment that lets a child import both repro and perfbench."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def python(*args: str) -> list[str]:
    """Command line running this interpreter with ``args``."""
    return [sys.executable, *args]


class Launched:
    """A started child, how long it took to get ready, and the ready line."""

    def __init__(self, process, raw_s: float, calib_s: float, line: str):
        self.process = process
        self.raw_s = raw_s
        self.calib_s = calib_s
        self.line = line

    @property
    def setup_s(self) -> float:
        """Launch-to-ready time at the reference host's speed."""
        return measure.normalise(self.raw_s, self.calib_s)


def launch(
    argv: list[str], ready, stream: str = "stdout", calibrated: bool = True
) -> Launched:
    """Start ``argv`` and wait until ``ready(line)`` accepts a line.

    ``stream`` names the pipe the ready line arrives on.  When
    ``calibrated``, a calibration loop runs just before the launch and
    just after ready, and their mean normalises the launch-to-ready time.
    """
    before = measure.calibrate() if calibrated else 0.0
    started = time.perf_counter()
    process = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if stream == "stdout" else subprocess.DEVNULL,
        stderr=subprocess.PIPE if stream == "stderr" else None,
        text=True,
    )
    pipe = process.stdout if stream == "stdout" else process.stderr
    # A child that hangs before its ready line is killed, which ends the
    # blocking readline below with an end of file.
    watchdog = threading.Timer(READY_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        while True:
            line = pipe.readline()
            if not line:
                raise RuntimeError(f"{argv[1:4]} exited before it was ready")
            if ready(line):
                break
    except BaseException:
        stop(process)
        raise
    finally:
        watchdog.cancel()
    raw_s = time.perf_counter() - started
    after = measure.calibrate() if calibrated else 0.0
    return Launched(process, raw_s, (before + after) / 2, line)


def stop(process, timeout: float = 30.0) -> None:
    """Interrupt a child, kill it if it lingers, and wait for it to end."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    for pipe in (process.stdout, process.stderr):
        if pipe is not None:
            pipe.close()


class Calibrator:
    """A helper process that runs the calibration loop on request.

    The serve workload calibrates between updates while its reader thread
    keeps an open-loop schedule; a separate process leaves the reader the
    benchmark process's interpreter lock.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            python("-m", "perfbench.measure"),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        """Seconds of one calibration, timed in the helper process."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        """End the helper and wait for it."""
        self.process.stdin.close()
        self.process.wait(30)
        self.process.stdout.close()
