"""Process and measurement plumbing shared by the untraced and traced runs.

:class:`ServerProcess` runs ``python -m repro serve`` as a child process on
a data directory inside the checkout.  It times start to first answered
PING, reads the child's peak RSS from ``/proc``, and always reaps the child.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.service import ServiceClient

READY_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


class ServerProcess:
    """One ``repro serve`` child process with a segment log in ``data_dir``."""

    def __init__(
        self,
        root: Path,
        data_dir: Path,
        snapshot_every: int,
        kernel_cache: Path,
        kernel: Optional[str] = None,
    ) -> None:
        self.data_dir = data_dir
        self._log_path = data_dir.with_name(data_dir.name + ".server.log")
        self._argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--data-dir",
            str(data_dir),
            "--port",
            "0",
            "--snapshot-every",
            str(snapshot_every),
            "--retention",
            "64",
            "--interval-length",
            "1.0",
        ]
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = str(root / "src")
        self._env["REPRO_KERNEL_CACHE"] = str(kernel_cache)
        if kernel is not None:
            self._env["REPRO_KERNEL"] = kernel
        self._process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Start the child and wait until it answers a PING; returns seconds taken."""
        began = time.perf_counter()
        with open(self._log_path, "ab") as log:
            self._process = subprocess.Popen(
                self._argv,
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
                env=self._env,
            )
        line = self._process.stdout.readline().decode("utf-8", "replace")
        if not line.startswith("listening on "):
            self.stop()
            raise BenchmarkError(f"server did not start: {line!r}; see {self._log_path}")
        self.port = int(line.rsplit(":", 1)[1])
        with ServiceClient("127.0.0.1", self.port, timeout=READY_TIMEOUT_S, retries=0) as client:
            while not client.ping():
                if time.perf_counter() - began > READY_TIMEOUT_S:
                    self.stop()
                    raise BenchmarkError("server never answered a PING")
                time.sleep(0.005)
        return time.perf_counter() - began

    def client(self, **kwargs) -> "RecordingClient":
        return RecordingClient("127.0.0.1", self.port, **kwargs)

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the child in MiB."""
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Kill the child (a crash, as far as the log is concerned) and reap it."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        process.stdout.close()


class RecordingClient(ServiceClient):
    """A :class:`ServiceClient` that keeps every acknowledged push envelope.

    The kept envelopes, in acknowledgement order, feed the reference
    registry of the correctness checks and the traced run's in-process
    replay of the server's accept pipeline.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.envelopes: List[bytes] = []

    def push_envelope(self, envelope: bytes):
        ack = super().push_envelope(envelope)
        self.envelopes.append(bytes(envelope))
        return ack


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in ``[0, 1]``) of a non-empty sample."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def require_tail(name: str, samples: Sequence[float], q: float) -> None:
    """Refuse a tail percentile with fewer than ten samples beyond it."""
    beyond = len(samples) - math.ceil(q * len(samples))
    if beyond < 10:
        raise BenchmarkError(
            f"{name}: {len(samples)} samples leave {beyond} beyond p{round(q * 100)}; need 10"
        )


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
