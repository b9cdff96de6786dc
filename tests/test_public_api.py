"""The public API against its snapshot in golden/public_api.json.

Every name in relvoigt.__all__ is recorded: a function by its parameters
and their defaults' reprs, a dataclass by its field names, another class by
its bases and a constant by its value.  Annotations are left out, so the
record is the same on every supported Python.  Each submodule's __all__ is
recorded too, as "relvoigt.<module>.__all__" (null for a module without
one).  A parameter, field or module-level public name added or removed
then shows as a diff of the golden file; after a reviewed change, rewrite
it with `python tests/test_public_api.py`.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import relvoigt

GOLDEN = Path(__file__).resolve().parent / "golden" / "public_api.json"


def _record(obj) -> dict:
    if dataclasses.is_dataclass(obj):
        return {"fields": [f.name for f in dataclasses.fields(obj)]}
    if inspect.isclass(obj):
        return {"bases": [b.__name__ for b in obj.__bases__]}
    if inspect.isfunction(obj):
        sig = inspect.signature(obj)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return {"signature": str(sig.replace(parameters=params, return_annotation=sig.empty))}
    return {"value": obj}


def public_api() -> dict:
    api = {name: _record(getattr(relvoigt, name)) for name in relvoigt.__all__}
    for module in sorted(relvoigt._SUBMODULES):
        names = getattr(importlib.import_module(f"relvoigt.{module}"), "__all__", None)
        api[f"relvoigt.{module}.__all__"] = names
    return api


def test_public_api_matches_golden():
    assert public_api() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(public_api(), indent=1) + "\n")
    print(f"wrote {len(relvoigt.__all__)} names and {len(relvoigt._SUBMODULES)} module lists to {GOLDEN}")
