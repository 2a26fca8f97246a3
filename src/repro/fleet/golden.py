"""Golden-result regression layer for the experiment registry.

``tests/golden/<name>.json`` stores the canonical serialized payload of
every registry experiment.  The pytest suite (``tests/test_golden.py``)
replays each experiment at ``--jobs 1`` and ``--jobs 4`` and asserts
the serialized output is byte-identical to the golden — so process
parallelism (or any refactor) can never silently change a reproduced
number.  ``python -m repro.fleet --update-goldens`` regenerates the
files with a diff summary; the updater runs every experiment twice and
refuses to write a golden whose two runs disagree (a nondeterministic
experiment is a bug, not a golden).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:
    from ..experiments.results import FigureResult

#: Default golden directory, relative to the repository root (the fleet
#: CLI resolves it against the current working directory).
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"


class GoldenError(ValueError):
    """Raised on unstable experiments or malformed golden files."""


def _canonical_cell(cell: Any) -> Any:
    """Normalize one table cell to a JSON-native value.

    Numpy scalars unwrap to their Python equivalents (so a payload
    computed via numpy serializes identically to one computed with
    plain floats); everything else must already be JSON-native.
    """
    if hasattr(cell, "item") and type(cell).__module__ == "numpy":
        return cell.item()
    if isinstance(cell, (bool, int, float, str)) or cell is None:
        return cell
    return str(cell)


def figure_payload(result: FigureResult) -> Dict[str, Any]:
    """Canonical JSON-native payload of one :class:`FigureResult`."""
    return {
        "figure": result.figure,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [[_canonical_cell(c) for c in row] for row in result.rows],
        "notes": result.notes,
    }


def payload_to_figure(payload: Dict[str, Any]) -> FigureResult:
    """Rebuild a :class:`FigureResult` from its canonical payload."""
    # Imported here so ``import repro.fleet`` (which cluster workers
    # pay for) does not load the whole experiments package.
    from ..experiments.results import FigureResult

    return FigureResult(
        figure=payload["figure"],
        title=payload["title"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        notes=payload["notes"],
    )


def canonical_json(payload: Dict[str, Any]) -> str:
    """The byte representation goldens store and tests compare."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def golden_path(name: str, directory: Union[str, Path]) -> Path:
    return Path(directory) / f"{name}.json"


def load_golden(name: str, directory: Union[str, Path]) -> Dict[str, Any]:
    path = golden_path(name, directory)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise GoldenError(f"cannot read golden {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GoldenError(f"golden {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "rows" not in payload:
        raise GoldenError(f"golden {path} is not a figure payload")
    return payload


def golden_names(directory: Union[str, Path]) -> List[str]:
    """Experiments with a stored golden, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.json"))


@dataclass
class GoldenDiff:
    """Summary of one experiment's payload vs. its stored golden."""

    name: str
    status: str  # "unchanged" | "changed" | "new"
    detail: str = ""
    cell_diffs: int = 0

    def describe(self) -> str:
        if self.status == "unchanged":
            return f"{self.name}: unchanged"
        if self.status == "new":
            return f"{self.name}: new golden"
        return f"{self.name}: CHANGED ({self.detail})"


def diff_payloads(
    name: str, old: Optional[Dict[str, Any]], new: Dict[str, Any]
) -> GoldenDiff:
    """Structural diff summary between a stored and a fresh payload."""
    if old is None:
        return GoldenDiff(name, "new")
    if canonical_json(old) == canonical_json(new):
        return GoldenDiff(name, "unchanged")
    parts: List[str] = []
    for key in ("figure", "title", "notes"):
        if old.get(key) != new.get(key):
            parts.append(f"{key} changed")
    if old.get("headers") != new.get("headers"):
        parts.append("headers changed")
    old_rows = old.get("rows", [])
    new_rows = new.get("rows", [])
    cells = 0
    if len(old_rows) != len(new_rows):
        parts.append(f"row count {len(old_rows)} -> {len(new_rows)}")
    else:
        for old_row, new_row in zip(old_rows, new_rows):
            if len(old_row) != len(new_row):
                cells += max(len(old_row), len(new_row))
                continue
            cells += sum(1 for a, b in zip(old_row, new_row) if a != b)
        if cells:
            parts.append(f"{cells} cell(s) differ")
    return GoldenDiff(name, "changed", "; ".join(parts) or "content differs",
                      cell_diffs=cells)


@dataclass
class GoldenReport:
    """Outcome of an update or check pass over many experiments."""

    diffs: List[GoldenDiff] = field(default_factory=list)
    written: List[str] = field(default_factory=list)

    @property
    def changed(self) -> List[GoldenDiff]:
        return [d for d in self.diffs if d.status != "unchanged"]

    def summary(self) -> str:
        counts = {"unchanged": 0, "changed": 0, "new": 0}
        for diff in self.diffs:
            counts[diff.status] += 1
        lines = [
            f"goldens: {counts['unchanged']} unchanged, "
            f"{counts['changed']} changed, {counts['new']} new"
        ]
        lines += [d.describe() for d in self.diffs if d.status != "unchanged"]
        return "\n".join(lines)


def update_goldens(
    payloads: Dict[str, Dict[str, Any]],
    directory: Union[str, Path],
    stability_payloads: Optional[Dict[str, Dict[str, Any]]] = None,
) -> GoldenReport:
    """Write fresh payloads as goldens; returns the diff report.

    When ``stability_payloads`` (a second independent run) is given,
    any experiment whose two runs serialize differently raises
    :class:`GoldenError` instead of writing an unstable golden.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    report = GoldenReport()
    for name in sorted(payloads):
        payload = payloads[name]
        if stability_payloads is not None:
            replay = stability_payloads.get(name)
            if replay is None or canonical_json(replay) != canonical_json(payload):
                raise GoldenError(
                    f"experiment {name!r} is nondeterministic: two runs "
                    "produced different serialized output; fix the "
                    "divergence before recording a golden"
                )
        path = golden_path(name, root)
        old: Optional[Dict[str, Any]] = None
        if path.exists():
            old = load_golden(name, root)
        diff = diff_payloads(name, old, payload)
        report.diffs.append(diff)
        if diff.status != "unchanged":
            path.write_text(canonical_json(payload), encoding="utf-8")
            report.written.append(name)
    return report


def check_goldens(
    payloads: Dict[str, Dict[str, Any]], directory: Union[str, Path]
) -> GoldenReport:
    """Compare fresh payloads against stored goldens without writing."""
    report = GoldenReport()
    for name in sorted(payloads):
        old = None
        if golden_path(name, directory).exists():
            old = load_golden(name, directory)
        report.diffs.append(diff_payloads(name, old, payloads[name]))
    return report
