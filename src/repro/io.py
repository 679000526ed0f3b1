"""Serialisation of simulation results.

Two formats:

* ``.npz`` -- full per-slot trajectories (lossless, compact), via
  :func:`save_result` / :func:`load_result`.
* ``.json`` -- the human-readable summary, via :func:`summary_to_json`.
* ``.jsonl`` -- one line per retained slot record, via
  :func:`records_to_jsonl` (same per-record schema as the trace sink).

Assignments/allocations inside ``records`` are intentionally not
serialised by :func:`save_result`: they are bulky, and every derived
statistic the experiments need lives in the trajectory arrays.  Use
:func:`records_to_jsonl` with ``include_arrays=True`` when the raw
decisions matter.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.sim.results import TRAJECTORY_FIELDS, SimulationResult, SimulationSummary

#: Format tag written into every archive; bump on breaking layout changes.
_FORMAT_VERSION = 1


def save_result(result: SimulationResult, path: str | Path) -> Path:
    """Write a :class:`SimulationResult`'s trajectories to ``path`` (.npz).

    Returns:
        The path written (with the ``.npz`` suffix ensured).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {name: getattr(result, name) for name in TRAJECTORY_FIELDS}
    payload["format_version"] = np.array(_FORMAT_VERSION)
    payload["budget"] = np.array(
        np.nan if result.budget is None else result.budget
    )
    np.savez_compressed(path, **payload)
    return path


def load_result(path: str | Path) -> SimulationResult:
    """Read a :class:`SimulationResult` written by :func:`save_result`.

    Raises:
        ValidationError: If the file misses fields or has an unsupported
            format version.
    """
    with np.load(Path(path)) as archive:
        version = int(archive.get("format_version", -1))
        if version != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported result format version {version} in {path}"
            )
        missing = [n for n in TRAJECTORY_FIELDS if n not in archive]
        if missing:
            raise ValidationError(f"{path} is missing fields: {missing}")
        budget = float(archive["budget"])
        return SimulationResult(
            **{name: archive[name] for name in TRAJECTORY_FIELDS},
            budget=None if np.isnan(budget) else budget,
        )


def summary_to_dict(summary: SimulationSummary) -> dict:
    """A JSON-ready dict of a summary.

    Thin wrapper kept for compatibility; delegates to the summary's own
    ``to_dict`` (which :class:`~repro.sim.replication.ReplicationSummary`
    shares field names with).
    """
    return summary.to_dict()


def records_to_jsonl(
    result: SimulationResult,
    path: str | Path,
    *,
    include_arrays: bool = False,
) -> Path:
    """Write a result's retained slot records as JSON Lines.

    One line per :class:`~repro.core.controller.SlotRecord`, using the
    same :meth:`~repro.core.controller.SlotRecord.to_dict` schema the
    observability trace sink emits for ``slot`` events -- so offline
    (``keep_records=True``) and streamed (``--trace``) data line up.

    Raises:
        ValidationError: If the result retained no records (run with
            ``keep_records=True``).
    """
    if not result.records:
        raise ValidationError(
            "result has no records; simulate with keep_records=True"
        )
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in result.records:
            handle.write(
                json.dumps(record.to_dict(include_arrays=include_arrays)) + "\n"
            )
    return path


def summary_to_json(summary: SimulationSummary, path: str | Path | None = None) -> str:
    """Serialise a summary to JSON, optionally writing it to *path*."""
    text = json.dumps(summary_to_dict(summary), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
