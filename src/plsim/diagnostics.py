"""Time-stamped scalar diagnostics recorded along a trajectory."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["COLUMNS", "DiagnosticsSeries"]

# Table layout of a series: the first three columns always, the reservoir
# columns only for the condensate-reservoir model.
COLUMNS = ("t", "mass", "l4_fourth", "n_integral", "n_sq_integral", "n_min")


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-sample scalars: mass integral, quartic integral, and (for the
    condensate-reservoir model) reservoir integrals and pointwise minimum.

    ``times`` must be strictly increasing; all series share one length.
    """

    times: np.ndarray
    mass: np.ndarray
    l4_fourth: np.ndarray
    n_integral: np.ndarray | None = None
    n_sq_integral: np.ndarray | None = None
    n_min: np.ndarray | None = None

    def __post_init__(self) -> None:
        present = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                present[f.name] = np.asarray(value, dtype=float)
                object.__setattr__(self, f.name, present[f.name])
        n = len(self.times)
        for name, series in present.items():
            if len(series) != n:
                raise ValueError(f"{name} has length {len(series)}, expected {n}")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, series in present.items():
            if not np.all(np.isfinite(series)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(self.mass < 0):
            raise ValueError("mass must be nonnegative")

    @classmethod
    def from_rows(cls, rows) -> DiagnosticsSeries:
        """Series from rows in COLUMNS order, of 3 or of all 6 columns."""
        data = np.asarray(rows, dtype=float)
        if data.ndim != 2 or data.shape[1] not in (3, len(COLUMNS)):
            raise ValueError(f"rows must have 3 or {len(COLUMNS)} columns, got shape {data.shape}")
        return cls(*data.T)

    def columns(self) -> list[np.ndarray]:
        """The series in COLUMNS order; the reservoir ones only when present."""
        series = [self.times, self.mass, self.l4_fourth]
        if self.has_reservoir:
            series += [self.n_integral, self.n_sq_integral, self.n_min]
        return series

    @property
    def has_reservoir(self) -> bool:
        return self.n_integral is not None

    def __len__(self) -> int:
        return len(self.times)
