"""Reading and writing profiles, fields, and iteration traces.

Profiles travel as a two-column CSV (r,value) next to a JSON sidecar
holding what the numbers alone cannot: the ambient dimension, the tail
exponent, and the interpolation rule. Fields use three columns
(rho,s,value) in row-major rho-outer order with the same sidecar layout.
Iteration traces are CSV or, by their suffix, JSON. CSV floats are written
with 17 significant digits and JSON floats in their shortest exact form, so
a write/read round trip is exact; parse failures name the offending line.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import ProfileFormatError
from .profiles import AxiSymField, RadialProfile

__all__ = [
    "read_field",
    "read_profile",
    "sidecar_path",
    "write_field",
    "write_profile",
    "write_trace",
]


# the one reading of a profile between its nodes (see RadialProfile)
_PROFILE_INTERP = "linear-log-r"


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def _write_sidecar(path: str | Path, header: dict) -> None:
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_sidecar(path: str | Path, required: tuple[str, ...]) -> dict:
    side = sidecar_path(path)
    if not side.exists():
        raise ProfileFormatError(f"missing sidecar {side}")
    try:
        with open(side, encoding="utf-8") as fh:
            header = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"{side}: invalid JSON ({exc})") from None
    for key in required:
        if key not in header:
            raise ProfileFormatError(f"{side}: missing key {key!r}")
    return header


def _parse_rows(path: str | Path, columns: tuple[str, ...]) -> np.ndarray:
    """Numeric rows of a headed CSV; errors carry 1-based line numbers."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise ProfileFormatError(f"{path}: empty file") from None
        if tuple(c.strip() for c in head) != columns:
            raise ProfileFormatError(
                f"{path}, line 1: expected header {','.join(columns)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ProfileFormatError(
                    f"{path}, line {lineno}: expected {len(columns)} fields, "
                    f"got {len(row)}"
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError:
                raise ProfileFormatError(
                    f"{path}, line {lineno}: non-numeric value in {row!r}"
                ) from None
            if not all(math.isfinite(v) for v in parsed):
                raise ProfileFormatError(
                    f"{path}, line {lineno}: non-finite value in {row!r}"
                )
            rows.append(parsed)
    if not rows:
        raise ProfileFormatError(f"{path}: no data rows")
    return np.array(rows)


def write_profile(path: str | Path, f: RadialProfile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "value"])
        for r, v in zip(f.radii, f.values):
            writer.writerow([f"{r:.17g}", f"{v:.17g}"])
    _write_sidecar(
        path, {"d": f.d, "tail_exponent": f.tail_exponent, "interp": _PROFILE_INTERP}
    )


def read_profile(path: str | Path) -> RadialProfile:
    header = _read_sidecar(path, ("d", "tail_exponent"))
    interp = header.get("interp", _PROFILE_INTERP)
    if interp != _PROFILE_INTERP:
        raise ProfileFormatError(
            f"{sidecar_path(path)}: unsupported interpolation {interp!r}"
        )
    data = _parse_rows(path, ("r", "value"))
    try:
        return RadialProfile(
            d=int(header["d"]),
            radii=data[:, 0],
            values=data[:, 1],
            tail_exponent=float(header["tail_exponent"]),
        )
    except ValueError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from None


def write_field(path: str | Path, g: AxiSymField) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "s", "value"])
        for i, rho in enumerate(g.rho):
            for j, s in enumerate(g.s):
                writer.writerow([f"{rho:.17g}", f"{s:.17g}", f"{g.values[i, j]:.17g}"])
    _write_sidecar(path, {"d": g.d, "tail_exponent": g.tail_exponent})


def read_field(path: str | Path) -> AxiSymField:
    """Rebuild a field from (rho,s,value) triples on a complete product grid."""
    header = _read_sidecar(path, ("d", "tail_exponent"))
    data = _parse_rows(path, ("rho", "s", "value"))
    rho = np.unique(data[:, 0])
    s = np.unique(data[:, 1])
    if len(data) != len(rho) * len(s):
        raise ProfileFormatError(
            f"{path}: {len(data)} rows do not fill a {len(rho)} x {len(s)} grid"
        )
    order = np.lexsort((data[:, 1], data[:, 0]))
    values = data[order, 2].reshape(len(rho), len(s))
    try:
        return AxiSymField(
            d=int(header["d"]),
            rho=rho,
            s=s,
            values=values,
            tail_exponent=float(header["tail_exponent"]),
        )
    except ValueError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from None


def write_trace(path: str | Path, distances, ratios, norms) -> None:
    """Iteration trace, one entry (n, distance, ratio, norm) per state.

    A path ending in .json gets one JSON object of four lists, any other
    path CSV rows.
    """
    if Path(path).suffix == ".json":
        trace = {
            "n": list(range(len(distances))),
            "distance": np.asarray(distances, dtype=float).tolist(),
            "ratio": np.asarray(ratios, dtype=float).tolist(),
            "norm": np.asarray(norms, dtype=float).tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "distance", "ratio", "norm"])
        for n, (dist, ratio, norm) in enumerate(zip(distances, ratios, norms)):
            writer.writerow([n, f"{dist:.17g}", f"{ratio:.17g}", f"{norm:.17g}"])
