"""The on-disk format of a run directory, shared by the sweep and the CLI.

A JSONL artifact is a header line, the only line with the timestamp, then
one compact JSON line per record.
"""

import json
import os
from pathlib import Path

SCHEMA_VERSION = 1


def temp_path(path: Path) -> Path:
    """The temporary file that ``write_atomic`` writes before it replaces ``path``."""
    return path.with_name(f".{path.name}.tmp")


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same directory.

    The temporary file replaces ``path`` only once it is complete, so an
    interrupted write leaves the previous file or none, never a truncated one.
    """
    tmp = temp_path(path)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, payloads, created_at: str, digest: str, cell: dict | None = None) -> None:
    """A JSONL artifact: the header (with ``cell``'s fields, if given), then one line per payload."""
    header = {"record": "header", "schema_version": SCHEMA_VERSION, "created_at": created_at, **(cell or {})}
    objects = [{**header, "config_digest": digest}, *payloads]
    write_atomic(path, "".join(json.dumps(o, separators=(",", ":"), allow_nan=False) + "\n" for o in objects))


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    """The header and the records of a JSONL artifact."""
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


def cell_filename(regime_name: str, flag: str, seed: int) -> str:
    return f"{regime_name}__{flag}__seed{seed}.jsonl"
