"""Deterministic CSV/JSON report writers.

Every output embeds the resolved experiment configuration and the package
version.  Floats are written with 17 significant digits and JSON keys are
sorted, so identical configurations produce byte-identical files.
Non-finite values serialize as the strings "inf", "-inf", "nan".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._version import __version__


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def sanitize(obj):
    """Make an object JSON-safe and deterministic (numpy -> python, inf -> str)."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return fmt_float(x)
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload: dict, config: dict) -> None:
    envelope = {"artifact": "stokeswave", "version": __version__, "config": config}
    envelope.update(payload)
    text = json.dumps(sanitize(envelope), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], config: dict) -> None:
    lines = [f"# stokeswave {__version__}",
             "# config: " + json.dumps(sanitize(config), sort_keys=True),
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
