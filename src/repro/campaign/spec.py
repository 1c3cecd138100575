"""Declarative campaign specifications.

A *campaign* is a named parameter sweep: one or more scenarios, each
with a grid of axis values, replicated over a number of seeds.  The spec
is pure data — :class:`CampaignSpec` round-trips through JSON, hashes
stably (:meth:`CampaignSpec.spec_hash`), and expands deterministically
into :class:`Cell` objects via :meth:`CampaignSpec.cells`.

Per-cell RNG seeds are derived from a **stable hash** of
``(campaign_seed, scenario, cell_params)`` (:func:`derive_cell_seed`),
never from positional counters: re-running any subset of the grid —
after an interrupt, on another worker count, or from a narrowed spec —
reproduces bit-identical numbers for the cells it shares with the full
grid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import REQUIRED, ConfigError, parse_json, typed_fields
from ..seeding import canonical_json, derive_seed

_SCALARS = (int, float, str, bool)


def derive_cell_seed(campaign_seed: int, scenario: str, params: Mapping[str, Any]) -> int:
    """Stable 63-bit seed for one cell.

    The hash covers the campaign seed, the scenario name and *every*
    cell parameter (replicate index included), so a cell's seed depends
    only on what the cell *is* — not on its position in the grid, the
    worker that runs it, or which other cells exist.  Delegates to
    :mod:`repro.seeding` so cells, the network loss stream and fault
    plans all share one SHA-256 derivation scheme (and its material
    format stays byte-compatible with pre-existing result stores).
    """
    return derive_seed(campaign_seed, scenario, dict(params))


def cell_id_for(scenario: str, params: Mapping[str, Any]) -> str:
    """Human-readable, store-stable identifier for one cell."""
    parts = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{scenario}/{parts}"


#: JSON field -> (accepted types, default); ``REQUIRED`` has none.
_SCENARIO_FIELDS: Dict[str, Tuple[Tuple[type, ...], Any]] = {
    "scenario": ((str,), REQUIRED),
    "grid": ((dict,), {}),
}
_CAMPAIGN_FIELDS: Dict[str, Tuple[Tuple[type, ...], Any]] = {
    "name": ((str,), REQUIRED),
    "scenarios": ((list, tuple), REQUIRED),
    "seed": ((int,), 0),
    "replicates": ((int,), 1),
    "cell_timeout": ((int, float), 0.0),
    "imports": ((list, tuple), ()),
}


@dataclass(frozen=True)
class Cell:
    """One point of the expanded grid: scenario + concrete parameters.

    ``params`` includes the ``replicate`` axis; ``seed`` is already
    derived (see :func:`derive_cell_seed`) so executors and scenario
    functions never invent their own seeding discipline.
    """

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    cell_id: str
    seed: int

    def params_dict(self) -> Dict[str, Any]:
        """The cell parameters as a plain dict (copy)."""
        return dict(self.params)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario's slice of a campaign: a name plus a value grid.

    ``grid`` maps axis name to the sequence of values to sweep; the
    expansion is the cartesian product of all axes.
    """

    scenario: str
    grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ConfigError("ScenarioSpec needs a scenario name")
        frozen: Dict[str, Tuple[Any, ...]] = {}
        for axis, values in dict(self.grid).items():
            if isinstance(values, _SCALARS):
                values = (values,)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(
                    f"axis {axis!r} of {self.scenario!r} must be a scalar or a list, "
                    f"got {values!r}"
                )
            values = tuple(values)
            if not values:
                raise ConfigError(f"axis {axis!r} of {self.scenario!r} is empty")
            for v in values:
                if not isinstance(v, _SCALARS):
                    raise ConfigError(
                        f"axis {axis!r} of {self.scenario!r} holds non-scalar {v!r}; "
                        "grid values must be JSON scalars"
                    )
            frozen[axis] = values
        if "replicate" in frozen:
            raise ConfigError("'replicate' is a reserved axis (set CampaignSpec.replicates)")
        object.__setattr__(self, "grid", frozen)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {"scenario": self.scenario, "grid": {k: list(v) for k, v in self.grid.items()}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; malformed input raises ConfigError."""
        fields = typed_fields("ScenarioSpec", data, _SCENARIO_FIELDS)
        return cls(**fields)


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: scenarios × grids × replicates under one seed.

    ``replicates`` adds a ``replicate`` axis (0..replicates-1) to every
    scenario, giving independent per-cell seeds for error bars.
    ``imports`` lists extra modules spawn workers must import so that
    non-builtin ``@scenario`` registrations are visible in them.
    """

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    seed: int = 0
    replicates: int = 1
    cell_timeout: float = 0.0  # seconds; 0 disables the per-cell alarm
    imports: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("CampaignSpec needs a name")
        if not self.scenarios:
            raise ConfigError("CampaignSpec needs at least one scenario")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0 <= self.cell_timeout < math.inf:  # NaN fails both
            raise ConfigError("cell_timeout must be a finite number of seconds >= 0")
        if self.cell_timeout > 2**31 - 1:
            # The per-cell alarm is signal.alarm, which takes a C int.
            raise ConfigError("cell_timeout must be at most 2**31 - 1 seconds")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "imports", tuple(self.imports))

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (inverse: :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "replicates": self.replicates,
            "cell_timeout": self.cell_timeout,
            "imports": list(self.imports),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; malformed input raises ConfigError."""
        fields = typed_fields("CampaignSpec", data, _CAMPAIGN_FIELDS)
        if not all(isinstance(module, str) for module in fields["imports"]):
            raise ConfigError(
                f"CampaignSpec 'imports' must be module names, got {fields['imports']!r}"
            )
        try:
            fields["cell_timeout"] = float(fields["cell_timeout"])
        except OverflowError:
            raise ConfigError("CampaignSpec 'cell_timeout' is out of range") from None
        fields["imports"] = tuple(fields["imports"])
        fields["scenarios"] = tuple(ScenarioSpec.from_dict(s) for s in fields["scenarios"])
        return cls(**fields)

    def to_json(self) -> str:
        """Pretty JSON for spec files."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a spec file produced by :meth:`to_json` (or by hand)."""
        return cls.from_dict(parse_json(text, "CampaignSpec"))

    def spec_hash(self) -> str:
        """Stable content hash of the spec (hex); names the run."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def cells(self) -> List[Cell]:
        """Expand the grid into concrete cells, deterministically.

        Axis iteration order is sorted by axis name; the ``replicate``
        axis is innermost.  Cell identity and seed are position-free, so
        the expansion order is a presentation detail only.
        """
        out: List[Cell] = []
        for sspec in self.scenarios:
            axes = sorted(sspec.grid)
            value_lists = [sspec.grid[a] for a in axes]
            for combo in itertools.product(*value_lists) if axes else [()]:
                base = dict(zip(axes, combo))
                for replicate in range(self.replicates):
                    params = dict(base)
                    params["replicate"] = replicate
                    out.append(
                        Cell(
                            scenario=sspec.scenario,
                            params=tuple(sorted(params.items())),
                            cell_id=cell_id_for(sspec.scenario, params),
                            seed=derive_cell_seed(self.seed, sspec.scenario, params),
                        )
                    )
        ids = [c.cell_id for c in out]
        if len(set(ids)) != len(ids):
            raise ConfigError("campaign grid expands to duplicate cells")
        return out
