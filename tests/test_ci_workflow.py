"""Structural lint for the CI workflow, stdlib only (no YAML parser).

YAML keeps the *last* value of a repeated mapping key, so a job that
loses its own key line silently merges into the job above it: that
job then declares ``runs-on``/``steps`` twice and CI runs only the
second body under the first job's name.  These checks read the job
mapping line by line and refuse any repeated job-level key.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, List

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def job_level_keys(text: str) -> Dict[str, List[str]]:
    """``{job id: [job-level keys in file order]}`` under ``jobs:``.

    Relies on the workflow's two-space indentation: job ids sit at
    indent 2, their keys at indent 4.  Block-scalar bodies (``run: |``)
    are always indented deeper than the key that opens them.
    """
    jobs: Dict[str, List[str]] = {}
    job_ids: List[str] = []
    in_jobs = False
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent == 0:
            in_jobs = stripped == "jobs:"
            current = None
        elif in_jobs and indent == 2 and stripped.endswith(":"):
            current = stripped[:-1]
            job_ids.append(current)
            jobs.setdefault(current, [])
        elif in_jobs and indent == 4 and current is not None and ":" in stripped:
            jobs[current].append(stripped.split(":", 1)[0])
    repeated_ids = [job for job, count in Counter(job_ids).items() if count > 1]
    assert not repeated_ids, f"job ids declared twice: {repeated_ids}"
    return jobs


def test_parser_flags_a_merged_job():
    merged = (
        "jobs:\n"
        "  a:\n"
        "    runs-on: x\n"
        "    steps:\n"
        "      - run: |\n"
        "          echo a\n"
        "    # the next job's key line went missing here\n"
        "    runs-on: y\n"
        "    steps:\n"
        "      - run: echo b\n"
    )
    keys = job_level_keys(merged)
    assert keys == {"a": ["runs-on", "steps", "runs-on", "steps"]}


def test_no_job_repeats_a_key():
    jobs = job_level_keys(WORKFLOW.read_text())
    assert jobs, "no jobs found under 'jobs:'"
    for job, keys in jobs.items():
        repeated = sorted(key for key, count in Counter(keys).items() if count > 1)
        assert not repeated, f"job {job!r} repeats {repeated}"
        assert keys.count("runs-on") == 1, f"job {job!r} has no runs-on"
        assert keys.count("steps") == 1, f"job {job!r} has no steps"


def test_documented_jobs_exist():
    # docs/TESTING.md and the Makefile-backed smoke gates name these.
    jobs = job_level_keys(WORKFLOW.read_text())
    for job in ("test", "matrix-nocache", "campaign-smoke", "scale-smoke"):
        assert job in jobs, f"CI job {job!r} is missing"
