"""Versioned JSON parameter containers shared by the HGM and CNN models.

Floats are serialized at full repr precision, so a save/load round trip is
bit-exact. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

FORMAT = "hgm-ehr-checkpoint"
VERSION = 1


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temp file and a rename, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def save_container(path, kind: str, payload: dict) -> None:
    obj = {"format": FORMAT, "version": VERSION, "kind": kind}
    obj.update(payload)
    write_json_atomic(path, obj)


def load_container(path, kind: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    if obj.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {obj.get('version')}")
    if obj.get("kind") != kind:
        raise ValueError(f"{path}: expected kind {kind!r}, found {obj.get('kind')!r}")
    return obj


def load_arrays(path, payload: dict, shapes: dict) -> dict:
    """The payload's arrays as finite floats, each checked against its shape in `shapes`,
    where an axis is an int or names an int in the payload's dims. A missing or ill-typed
    dims, dims entry, arrays or array is refused with a ValueError naming the file."""
    dims, stored = payload.get("dims"), payload.get("arrays")
    for key, value in (("dims", dims), ("arrays", stored)):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {key!r} is missing or not an object")
    arrays = {}
    for name, axes in shapes.items():
        for axis in axes:
            if isinstance(axis, str) and type(dims.get(axis)) is not int:
                raise ValueError(f"{path}: dims {axis!r} is missing or not an integer")
        shape = tuple(dims[axis] if isinstance(axis, str) else axis for axis in axes)
        if name not in stored:
            raise ValueError(f"{path}: array {name!r} is missing")
        try:
            arrays[name] = np.asarray(stored[name], dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: array {name} is ragged or not numeric ({exc})") from None
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: array {name} has shape {arrays[name].shape}, "
                             f"but dims {dims} give {shape}")
        bad = np.argwhere(~np.isfinite(arrays[name]))
        if len(bad):
            raise ValueError(f"{path}: array {name} holds non-finite entries, "
                             f"the first at index {bad[0].tolist()}")
    return arrays
