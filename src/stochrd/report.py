"""Machine-checkable certificate reports.

Every inequality check in the package returns a CertificateReport rather
than a bare bool, so that failures carry the worst margin and where it
occurred.  Margins are signed: margin = (bound side) - (checked side),
so a nonnegative margin means the inequality holds.  Every report reduces
its margins by one rule (_verdict): the worst margin is the first NaN if
there is one, else the first smallest, and pass means worst margin >=
-tolerance, so a NaN margin fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: rows converted to Python numbers at a time, so no whole-ledger list is built
_ROWS = 4096


@dataclass
class CertificateReport:
    name: str
    passed: bool
    worst_margin: float
    tolerance: float
    location: float | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "pass": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "tolerance": float(self.tolerance),
            "location_t": None if self.location is None else float(self.location),
        }
        if self.details:
            d["details"] = _plain(self.details)
        return d

    def write_json(self, path) -> None:
        _write_json(path, self.to_json_dict())


def _verdict(name, margins, where, tolerance, details) -> CertificateReport:
    """The report on margins, margins[k] found at where[k].  np.argmin picks the first
    NaN if there is one, else the first smallest margin; a NaN compares false, so fails."""
    k = int(np.argmin(margins))
    return CertificateReport(name=name, passed=bool(margins[k] >= -tolerance),
                             worst_margin=float(margins[k]), tolerance=tolerance,
                             location=float(where[k]), details=details)


def _write_json(path, obj) -> None:
    """The JSON artifact format: two-space indent, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """The CSV artifact format: a header, then one line of repr cells per row.  Rows are
    tuples as long as the header, of Python numbers (.tolist(), float(), int()): numpy 2
    would print a numpy scalar as np.float64(...)."""
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def _rows(*columns):
    """_write_csv rows from equal-length 1-d arrays, one .tolist() per column every _ROWS."""
    for lo in range(0, len(columns[0]), _ROWS):
        yield from zip(*(c[lo:lo + _ROWS].tolist() for c in columns))


def _plain(obj):
    """Coerce numpy scalars and arrays to plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
