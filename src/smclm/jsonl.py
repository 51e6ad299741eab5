"""JSON Lines files: one JSON value per line, blank lines ignored."""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable


def read_jsonl(path: str, parse: Callable[[Any], Any] = lambda rec: rec) -> list:
    """parse(record) for every non-blank line of path, in order.

    Bad JSON, or a record that parse rejects with KeyError, TypeError or
    ValueError, raises ValueError("path:line: ...").
    """
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad JSON: {e}") from None
            try:
                out.append(parse(rec))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: bad record: {e}") from None
    return out


def string_list(value: Any, name: str) -> list[str]:
    """value when it is a non-empty list of strings; ValueError naming the field otherwise."""
    if not isinstance(value, list) or not value or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{name} must be a non-empty list of strings, got {value!r}")
    return value


def write_jsonl(records: Iterable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
