"""Persistent campaign results: append-only JSONL + run manifests.

Layout under a store root (default ``.campaigns/``)::

    <root>/<run_id>/manifest.json    # spec, spec hash, git SHA, status, timing
    <root>/<run_id>/results.jsonl    # one record per completed cell, append-only

``run_id`` is ``<name>-<spec_hash[:8]>``: content-addressed, so opening
the same spec again resumes the same run — already-completed cells are
skipped (:meth:`RunStore.completed_cell_ids`) and new records append.
Records are flushed line-by-line as workers report, which is what makes
a ``KeyboardInterrupt`` (or a crashed box) resumable: whatever reached
disk counts.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from .spec import CampaignSpec

RESULT_KEYS = {"cell_id", "scenario", "params", "seed", "status", "metrics", "attempts"}


def git_sha() -> Optional[str]:
    """HEAD commit of the current working tree, if this is a git repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


class RunStore:
    """One run's directory: manifest plus the append-only result log."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.run_id = self.path.name

    @property
    def manifest_path(self) -> Path:
        """``manifest.json`` inside the run directory."""
        return self.path / "manifest.json"

    @property
    def results_path(self) -> Path:
        """``results.jsonl`` inside the run directory."""
        return self.path / "results.jsonl"

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def read_manifest(self) -> Dict[str, Any]:
        """Load the manifest; raises if the run was never created."""
        try:
            return json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise ReproError(f"run {self.run_id!r} has no manifest at {self.manifest_path}") from None
        except json.JSONDecodeError as exc:
            raise ReproError(f"run {self.run_id!r}: corrupt manifest: {exc}") from None

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Atomically replace the manifest."""
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        tmp.replace(self.manifest_path)

    def update_manifest(self, **fields: Any) -> Dict[str, Any]:
        """Merge fields into the manifest and persist it."""
        manifest = self.read_manifest()
        manifest.update(fields)
        self.write_manifest(manifest)
        return manifest

    def spec(self) -> CampaignSpec:
        """The campaign spec this run was created from."""
        return CampaignSpec.from_dict(self.read_manifest()["spec"])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def append_result(self, record: Dict[str, Any]) -> None:
        """Append one cell record (single JSON line, flushed to disk)."""
        missing = RESULT_KEYS - set(record)
        if missing:
            raise ReproError(f"result record missing keys: {sorted(missing)}")
        with open(self.results_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def load_results(self) -> List[Dict[str, Any]]:
        """Every parseable record, in append order.

        A trailing half-written line (crash mid-append) is tolerated and
        skipped; corruption anywhere else raises via :meth:`validate`.
        """
        records: List[Dict[str, Any]] = []
        if not self.results_path.exists():
            return records
        with open(self.results_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail write; validate() reports it
        return records

    def completed_cell_ids(self) -> Set[str]:
        """Cells that already hold an ``ok`` record (resume skips these)."""
        return {r["cell_id"] for r in self.load_results() if r.get("status") == "ok"}

    def validate(self) -> List[str]:
        """Integrity check; returns a list of problems (empty = valid)."""
        problems: List[str] = []
        try:
            manifest = self.read_manifest()
        except ReproError as exc:
            return [str(exc)]
        for key in ("run_id", "spec", "spec_hash", "created_at", "status"):
            if key not in manifest:
                problems.append(f"manifest missing {key!r}")
        if manifest.get("run_id") != self.run_id:
            problems.append(
                f"manifest run_id {manifest.get('run_id')!r} != directory {self.run_id!r}"
            )
        try:
            spec = CampaignSpec.from_dict(manifest.get("spec", {}))
            if spec.spec_hash() != manifest.get("spec_hash"):
                problems.append("spec_hash does not match the embedded spec")
            valid_cells = {c.cell_id: c for c in spec.cells()}
        except Exception as exc:  # spec may be arbitrarily malformed
            problems.append(f"embedded spec does not parse: {exc}")
            valid_cells = {}
        if self.results_path.exists():
            lines = self.results_path.read_text().splitlines()
        else:
            lines = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                problems.append(f"results.jsonl:{lineno}: unparseable line")
                continue
            missing = RESULT_KEYS - set(record)
            if missing:
                problems.append(f"results.jsonl:{lineno}: missing keys {sorted(missing)}")
                continue
            cell = valid_cells.get(record["cell_id"])
            if valid_cells and cell is None:
                problems.append(
                    f"results.jsonl:{lineno}: cell {record['cell_id']!r} not in the spec grid"
                )
            elif cell is not None and record["seed"] != cell.seed:
                problems.append(
                    f"results.jsonl:{lineno}: seed {record['seed']} != derived {cell.seed}"
                )
        return problems


class ResultStore:
    """The store root: creates, resumes and enumerates runs."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def run_id_for(self, spec: CampaignSpec) -> str:
        """Content-addressed run id for a spec."""
        return f"{spec.name}-{spec.spec_hash()[:8]}"

    def open_run(self, spec: CampaignSpec, jobs: int = 1) -> Tuple[RunStore, bool]:
        """Create the run for ``spec``, or resume it if it already exists.

        Returns ``(run_store, resumed)``.  Resuming a directory whose
        manifest hashes a *different* spec is an error — that would mix
        incompatible grids in one result log.
        """
        run_id = self.run_id_for(spec)
        run = RunStore(self.root / run_id)
        if run.manifest_path.exists():
            manifest = run.read_manifest()
            if manifest.get("spec_hash") != spec.spec_hash():
                raise ReproError(
                    f"run {run_id!r} exists with a different spec hash; "
                    "rename the campaign or use a fresh store"
                )
            run.update_manifest(status="running", jobs=jobs)
            return run, True
        run.path.mkdir(parents=True, exist_ok=True)
        run.write_manifest(
            {
                "run_id": run_id,
                "name": spec.name,
                "spec": spec.to_dict(),
                "spec_hash": spec.spec_hash(),
                "git_sha": git_sha(),
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "status": "running",
                "jobs": jobs,
                "wall_time_s": None,
                "cells_total": len(spec.cells()),
            }
        )
        return run, False

    def get_run(self, run_id: str) -> RunStore:
        """Resolve a run: the literal ``latest`` (the newest run), an
        exact run id, or the one run whose manifest ``name`` it is."""
        if run_id != "latest":
            run = RunStore(self.root / run_id)
            if run.manifest_path.exists():
                return run
        runs = self.list_runs()
        if run_id == "latest":
            if not runs:
                raise ReproError(f"no runs in store {self.root}")
            return runs[-1]
        named = [r for r in runs if _manifest_name(r) == run_id]
        if len(named) > 1:
            ids = ", ".join(r.run_id for r in named)
            raise ReproError(f"run name {run_id!r} is ambiguous in {self.root}: {ids}")
        if not named:
            known = ", ".join(r.run_id for r in runs) or "<none>"
            raise ReproError(f"unknown run {run_id!r} in {self.root}; known: {known}")
        return named[0]

    def list_runs(self) -> List[RunStore]:
        """All runs in the store, oldest first (by manifest timestamp)."""
        if not self.root.exists():
            return []
        runs = []
        for child in self.root.iterdir():
            run = RunStore(child)
            if run.manifest_path.exists():
                try:
                    created = run.read_manifest().get("created_at", "")
                except ReproError:
                    created = ""
                runs.append((created, run))
        runs.sort(key=lambda pair: (pair[0], pair[1].run_id))
        return [run for _, run in runs]


def _manifest_name(run: RunStore) -> Optional[str]:
    try:
        return run.read_manifest().get("name")
    except ReproError:
        return None
