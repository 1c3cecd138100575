"""Service teardown under repetition: every host exits with status 0.

``ServiceRuntime.finish`` asks each node host to shut down and then has
the supervisor SIGTERM whatever is still alive.  A host that already
answered ``shutdown`` is in its own teardown at that point, and a
SIGTERM landing while it hands the signal back from asyncio to the
default disposition used to kill it (exit status -15, reported as a
teardown error).  Many short sessions in one process make that window
likely to be hit if it is open.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceSpec
from repro.service.runtime import run_service_session

SESSIONS = 12


@pytest.mark.slow
def test_repeated_short_sessions_tear_down_cleanly():
    for seed in range(SESSIONS):
        # run_service_session raises ServiceError on any teardown error,
        # a host exit status other than 0 included.
        result = run_service_session(
            ServiceSpec(num_nodes=6, processes=2, seed=seed), max_executions=2
        )
        assert result.outcomes
