"""Output checks for one ``backflow`` invocation.

A sweep passes when it exits 0 with no persistent NaN-guard errors, every
repeat record is finite with divergences in [0, 1] and ``delta == d2 - d1``
exactly, and the negative control is exactly zero in the records and the
summary.  An oracle run passes when it exits 0, its worst delta is within the
printed bound, and the demo witness is positive before the break and within
the bound after it.  Identity of outputs across invocations is checked by the
caller through the digests returned here.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# Expectations are spelled out here rather than imported from the program
# under test.
KINDS = ("tv", "js", "hellinger")
NEGATIVE = "negative"


@dataclass
class Outcome:
    ops: int  # repeats (sweep) or processes (oracle) the invocation completed
    digest: str | None  # summary digest (sweep) or stdout digest (oracle)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def summary_digest(summary: dict) -> str:
    """SHA-256 of ``summary.json`` content with ``meta.created_at`` removed."""
    meta = {k: v for k, v in summary.get("meta", {}).items() if k != "created_at"}
    blob = json.dumps(dict(summary, meta=meta), sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def _in_unit_range(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_record(record: dict, negative: bool) -> list[str]:
    where = f"repeat {record.get('repeat_id')}"
    if record.get("error") is not None:
        return [f"{where}: error {record['error']!r}"]
    problems = []
    for kind in KINDS:
        try:
            d1, d2, delta = record["d1"][kind], record["d2"][kind], record["delta"][kind]
        except (KeyError, TypeError):
            return [f"{where}: missing {kind} divergences"]
        if not (_in_unit_range(d1) and _in_unit_range(d2)):
            problems.append(f"{where}: {kind} d1={d1!r} d2={d2!r} outside [0, 1]")
        elif delta != d2 - d1:
            problems.append(f"{where}: {kind} delta {delta!r} != d2 - d1")
        if negative and not d1 == d2 == delta == 0.0:
            problems.append(f"{where}: negative control {kind} d1={d1} d2={d2} delta={delta}, expected 0")
    return problems


def check_summary(summary: dict, cell_records: dict[tuple, list[dict]]) -> list[str]:
    """Check a sweep's summary and its per-cell repeat records.

    ``cell_records`` maps ``(regime, break, seed)`` to that cell's repeat
    records, header excluded.
    """
    problems = []
    if summary.get("n_persistent_errors") != 0:
        problems.append(f"n_persistent_errors = {summary.get('n_persistent_errors')!r}")
    for cell in summary["cells"]:
        key = (cell["regime"], cell["break"], cell["seed"])
        records = cell_records.get(key)
        if records is None:
            problems.append(f"cell {key}: no records")
            continue
        if len(records) != cell["n_repeats"]:
            problems.append(f"cell {key}: {len(records)} records, summary says {cell['n_repeats']}")
        negative = cell["regime"] == NEGATIVE
        for record in records:
            problems.extend(f"cell {key}: {p}" for p in check_record(record, negative))
    for block in summary["cells"] + summary["pooled"]:
        if block["regime"] != NEGATIVE:
            continue
        for kind in KINDS:
            mean = block["metrics"][kind].get("mean")
            if mean != 0.0:
                problems.append(f"negative control {block['break']} {kind}: summary mean {mean!r}, expected 0")
    return problems


def check_sweep(out_dir: Path, exit_code: int) -> Outcome:
    """Check the run directory a ``backflow run`` invocation left behind."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        cell_records = {}
        for cell in summary["cells"]:
            path = out_dir / f"{cell['regime']}__{cell['break']}__seed{cell['seed']}.jsonl"
            if path.exists():
                lines = path.read_text().splitlines()
                cell_records[(cell["regime"], cell["break"], cell["seed"])] = [json.loads(x) for x in lines[1:]]
        problems += check_summary(summary, cell_records)
        ops = sum(cell["n_repeats"] for cell in summary["cells"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(0, None, problems + [f"run outputs unreadable: {exc!r}"])
    return Outcome(ops, summary_digest(summary), problems)


def _number(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None


def check_oracle(stdout: str, exit_code: int) -> Outcome:
    """Check the printed report of ``backflow oracle --demo-witness``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    checked = _number(r"checked (\d+) processes", stdout)
    worst = _number(r"worst back-flow delta:\s+(\S+)", stdout)
    bound = _number(r"\(bound (\S+)\)", stdout)
    before = _number(r"delta before break:\s+(\S+)", stdout)
    after = _number(r"delta after break:\s+(\S+)", stdout)
    if None in (checked, worst, bound, before, after):
        problems.append("oracle report incomplete")
    else:
        if not worst <= bound:
            problems.append(f"worst delta {worst} exceeds bound {bound}")
        if not before > 0.0:
            problems.append(f"witness delta before break {before} is not positive")
        if not after <= bound:
            problems.append(f"witness delta after break {after} exceeds bound {bound}")
    if "FAIL" in stdout:
        problems.append("oracle printed FAIL")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return Outcome(int(checked or 0), digest, problems)
