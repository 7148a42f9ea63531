"""Tensor document wire format.

A document is a JSON object {"kind": ..., "data": [...], "label": ...}
with kind one of full222, sym222, pxpx2.  Data layout:

* full222 -- 8 floats, slab-major (a, b, c, d, e, f, g, h)
* sym222  -- 4 floats (a, b, c, d)
* pxpx2   -- p followed by the two p x p slabs, each row-major
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensors import SymTensor222, Tensor222, TensorPxPx2

__all__ = ["TensorDocument", "parse_document", "infer_kind"]

KINDS = ("full222", "sym222", "pxpx2")


@dataclass(frozen=True)
class TensorDocument:
    kind: str
    data: tuple
    label: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown document kind {self.kind!r}")
        data = tuple(float(v) for v in self.data)
        if not all(np.isfinite(v) for v in data):
            raise ValueError("document data must be finite")
        _validate_length(self.kind, data)
        object.__setattr__(self, "data", data)

    def to_tensor(self):
        if self.kind == "full222":
            return Tensor222.from_flat(self.data)
        if self.kind == "sym222":
            return SymTensor222.from_flat(self.data)
        p = int(self.data[0])
        body = np.asarray(self.data[1:], float)
        slab1 = body[: p * p].reshape(p, p)
        slab2 = body[p * p:].reshape(p, p)
        return TensorPxPx2.from_slabs(slab1, slab2)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "data": list(self.data)}
        if self.label is not None:
            out["label"] = self.label
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def _validate_length(kind: str, data: tuple):
    n = len(data)
    if kind == "full222" and n != 8:
        raise ValueError(f"full222 documents need 8 values, got {n}")
    if kind == "sym222" and n != 4:
        raise ValueError(f"sym222 documents need 4 values, got {n}")
    if kind == "pxpx2":
        if n < 1:
            raise ValueError("pxpx2 documents need a leading dimension value")
        p = data[0]
        if p != int(p) or int(p) < 2:
            raise ValueError(f"pxpx2 dimension must be an integer >= 2, got {p}")
        if n != 1 + 2 * int(p) ** 2:
            raise ValueError(
                f"pxpx2 documents with p={int(p)} need {1 + 2 * int(p) ** 2} values, got {n}")


def infer_kind(n_values: int) -> str:
    """Document kind from the value count: 4 sym222, 8 full222, 1 + 2 p^2 pxpx2."""
    if n_values == 4:
        return "sym222"
    if n_values == 8:
        return "full222"
    p = math.isqrt(max(n_values - 1, 0) // 2)
    if p >= 2 and 1 + 2 * p * p == n_values:
        return "pxpx2"
    raise ValueError(f"cannot infer document kind from {n_values} values")


def parse_document(obj, kind: str | None = None) -> TensorDocument:
    """Build a TensorDocument from a dict, JSON string, or flat value list."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if isinstance(obj, dict):
        if "data" not in obj:
            raise ValueError("document object lacks a 'data' field")
        data = obj["data"]
        doc_kind = obj.get("kind") or kind or infer_kind(len(data))
        return TensorDocument(doc_kind, tuple(data), obj.get("label"))
    data = tuple(float(v) for v in obj)
    return TensorDocument(kind or infer_kind(len(data)), data)
