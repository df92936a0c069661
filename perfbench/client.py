"""Drive one `repro serve` child process over its stdin/stdout protocol.

One client, one pipe, a fixed number of lines in flight (a closed loop):
each parsed response releases the next line.  Times are
``time.monotonic_ns()`` (CLOCK_MONOTONIC, shared by every process on the
box, so client times line up with server-side spans).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import threading
import time
from pathlib import Path

PSS_EVERY = 0.25  # seconds between memory samples during a timed phase


class ServerDied(RuntimeError):
    pass


class Server:
    """A `repro serve` child: spawned, warmed up, driven, then drained."""

    def __init__(self, argv: list, cwd: Path, env: dict, log: Path) -> None:
        self.spawned_ns = time.monotonic_ns()
        with log.open("ab") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        self._fd = self.proc.stdin.fileno()
        try:
            self.banner = self.read()
            if not self.banner.get("ready"):
                raise ServerDied(f"unexpected banner {self.banner!r}")
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise

    def write(self, text: str) -> None:
        data = (text + "\n").encode()
        while data:
            data = data[os.write(self._fd, data):]

    def read(self) -> dict:
        raw = self.proc.stdout.readline()
        if not raw:
            raise ServerDied(f"server exited with {self.proc.poll()!r}")
        return json.loads(raw)

    def exchange(self, lines: list) -> list:
        """Send *lines* pipelined and return their responses (untimed use)."""
        for text in lines:
            self.write(text)
        return [self.read() for _ in lines]

    def closed_loop(self, lines: list, window: int):
        """Replay *lines* with *window* in flight.

        Returns the sent and received times, the responses, and the PSS
        samples (``{pid: MB}``) taken every ``PSS_EVERY`` seconds meanwhile.
        """
        n = len(lines)
        sent = [0] * n
        received = [0] * n
        responses = [None] * n
        nxt = 0
        samples: list = []
        done = threading.Event()

        def sample() -> None:
            while not done.wait(PSS_EVERY):
                samples.append(self.pss_mb())
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        gc.disable()
        try:
            while nxt < min(window, n):
                sent[nxt] = time.monotonic_ns()
                self.write(lines[nxt])
                nxt += 1
            for j in range(n):
                responses[j] = self.read()
                received[j] = time.monotonic_ns()
                if nxt < n:
                    sent[nxt] = time.monotonic_ns()
                    self.write(lines[nxt])
                    nxt += 1
        finally:
            gc.enable()
            done.set()
            sampler.join()
        samples.append(self.pss_mb())
        return sent, received, responses, samples

    def pss_mb(self) -> dict:
        """PSS of the server and each process it forked, in MB, by pid."""
        return {pid: _pss_kb(pid) / 1024.0 for pid in _tree(self.proc.pid)}

    def close(self, timeout: float = 120.0) -> int:
        """EOF drains the server (every admitted line is answered first)."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def _tree(pid: int) -> list:
    pids = [pid]
    for task in Path(f"/proc/{pid}/task").iterdir():
        children = (task / "children").read_text().split()
        for child in children:
            pids.extend(_tree(int(child)))
    return pids


def _pss_kb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
        if line.startswith("Pss:"):
            return float(line.split()[1])
    raise RuntimeError(f"no Pss line for pid {pid}")
