"""Child-process supervision for the service runtime.

The coordinator spawns one OS process per node host and must never leak
them: every exit path — clean shutdown, protocol error, timeout, test
teardown — funnels through :meth:`Supervisor.shutdown`, which escalates
SIGTERM (graceful: hosts flush metrics) to SIGKILL and reaps every child.

The resilience layer (``runtime.py``) additionally uses the supervisor as
its process-lifecycle oracle: :meth:`Supervisor.poll_host` backs the
control channel's liveness probe (a crashed child is detected within one
poll slice, not one timeout), :meth:`Supervisor.kill_host` +
:meth:`Supervisor.spawn_host` implement host restart, and
:meth:`Supervisor.shutdown_report` surfaces per-host exit codes into
:class:`~repro.metrics.Metrics` host-event accounting.  Kills issued *by*
the runtime (restart, degradation, chaos) are marked *expected* so the
final report can distinguish them from spontaneous child failures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

DEFAULT_GRACE = 5.0


def python_env() -> Dict[str, str]:
    """Environment for a child that must import :mod:`repro`.

    Prepends the package's source root to ``PYTHONPATH`` so hosts work
    under ``PYTHONPATH=src`` checkouts and installed trees alike.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
    return env


@dataclass(frozen=True)
class HostExit:
    """Final status of one supervised child at shutdown."""

    host_index: int  # -1 for children not spawned via spawn_host
    returncode: int
    expected: bool  # killed/replaced deliberately by the runtime


class Supervisor:
    """Owns a set of child processes and guarantees they are reaped."""

    def __init__(self, grace: float = DEFAULT_GRACE) -> None:
        self.grace = grace
        self.procs: List[subprocess.Popen] = []
        self.by_host: Dict[int, subprocess.Popen] = {}
        self.host_of_pid: Dict[int, int] = {}
        self.restarts: Counter = Counter()
        self._expected_pids: Set[int] = set()

    def spawn(
        self, args: Sequence[str], env: Optional[Dict[str, str]] = None
    ) -> subprocess.Popen:
        proc = subprocess.Popen(
            list(args),
            env=env if env is not None else python_env(),
            stdin=subprocess.DEVNULL,
        )
        self.procs.append(proc)
        return proc

    def spawn_host(
        self,
        host_index: int,
        spec_json: str,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> subprocess.Popen:
        """Spawn (or respawn) the process for one node host.

        Respawning marks the previous incarnation expected-dead and
        bumps the per-host restart counter.
        """
        from .spec import SPEC_ENV

        env = python_env()
        env[SPEC_ENV] = spec_json
        if extra_env:
            env.update(extra_env)
        previous = self.by_host.get(host_index)
        if previous is not None:
            self._expected_pids.add(previous.pid)
            self.restarts[host_index] += 1
        proc = self.spawn(
            [sys.executable, "-m", "repro", "service", "node",
             "--host-index", str(host_index)],
            env=env,
        )
        self.by_host[host_index] = proc
        self.host_of_pid[proc.pid] = host_index
        return proc

    def poll_host(self, host_index: int) -> Optional[int]:
        """Exit code of the host's current incarnation, or None if alive."""
        proc = self.by_host.get(host_index)
        if proc is None:
            return None
        return proc.poll()

    def signal_host(self, host_index: int, sig: int) -> None:
        """Deliver a signal to the host's current incarnation (chaos hook)."""
        proc = self.by_host.get(host_index)
        if proc is None or proc.poll() is not None:
            return
        try:
            proc.send_signal(sig)
        except OSError:
            pass

    def kill_host(self, host_index: int) -> None:
        """SIGKILL + reap one host's current incarnation, marked expected.

        SIGKILL works on SIGSTOPped children too, so this also clears
        hung/stopped hosts.  Idempotent for already-dead children.
        """
        proc = self.by_host.get(host_index)
        if proc is None:
            return
        self._expected_pids.add(proc.pid)
        if proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass
        try:
            proc.wait(timeout=self.grace)
        except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL reaps
            pass

    def reap_exiting(self, host_indices: Sequence[int]) -> None:
        """Wait (up to one shared grace period) for hosts that are
        exiting on their own — they answered a shutdown request — so
        :meth:`shutdown` does not SIGTERM a host mid-teardown.

        A host hands its SIGTERM disposition from asyncio back to the
        default and only then ignores the signal; a SIGTERM landing in
        between kills an otherwise clean exit with status -15.
        """
        deadline = time.monotonic() + self.grace
        for host_index in host_indices:
            proc = self.by_host.get(host_index)
            if proc is None:
                continue
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass  # still running: shutdown() escalates as usual

    def alive(self) -> List[subprocess.Popen]:
        return [p for p in self.procs if p.poll() is None]

    def shutdown(self, grace: Optional[float] = None) -> List[int]:
        """Terminate and reap every child; returns their exit codes.

        SIGTERM first (node hosts trap it to flush metrics and exit 0),
        SIGKILL for anything that outlives the grace period.  Idempotent.
        """
        if grace is None:
            grace = self.grace
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        codes: List[int] = []
        for proc in self.procs:
            try:
                codes.append(proc.wait(timeout=grace))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        return codes

    def shutdown_report(self, grace: Optional[float] = None) -> List[HostExit]:
        """:meth:`shutdown`, annotated per child with host index and
        whether the runtime killed/replaced that incarnation on purpose."""
        codes = self.shutdown(grace)
        return [
            HostExit(
                host_index=self.host_of_pid.get(proc.pid, -1),
                returncode=code,
                expected=proc.pid in self._expected_pids,
            )
            for proc, code in zip(self.procs, codes)
        ]

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
