"""Named preset models and scenes shipped as JSON data files.

A preset file holds the inline object of its kind (a mixture, pair or scene)
plus "kind": "gmm", "pair" or "scene". Every object refuses unknown keys; a
"kind" is optional in any object and, when present, must name the kind read.
The directory can be overridden with the COUPLED_SAMPLER_PRESETS environment
variable, which is how acceptance runs pin alternate inputs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .config import ConfigError, _json_number, _kind, _require
from .models import Gmm, MvScene

PRESET_ENV = "COUPLED_SAMPLER_PRESETS"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")


def preset_dir() -> Path:
    override = os.environ.get(PRESET_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "presets"


def list_presets() -> list:
    root = preset_dir()
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.json"))


def load_preset(name: str):
    """The parsed JSON of preset file name; the kind's reader checks it."""
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid preset name {name!r}")
    path = preset_dir() / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown preset {name!r} (searched {path.parent})")
    return json.loads(path.read_text())


def gmm_preset_names() -> list:
    """The presets of kind "gmm"; a preset file that is not a JSON object is
    an error naming the file, never skipped."""
    names = []
    for n in list_presets():
        doc = load_preset(n)
        if not isinstance(doc, dict):
            raise ConfigError(f"{preset_dir() / n}.json: expected an object, got {doc!r}")
        if doc.get("kind") == "gmm":
            names.append(n)
    return names


def _doc(spec):
    """The JSON of preset spec, or spec itself if it is not a preset name."""
    return load_preset(spec) if isinstance(spec, str) else spec


def resolve_gmm(spec) -> Gmm:
    """A Gmm from a preset name or an inline object."""
    return Gmm.from_dict(_doc(spec))


_REFERENCE_KEYS = {"coupling_median_lambda0": (False, _json_number)}
_PAIR_KEYS = {
    "kind": (False, _kind("pair")),
    "model_a": (True, Gmm.from_dict),
    "model_b": (True, Gmm.from_dict),
    "reference": (False, lambda v, loc: _require(v, loc, _REFERENCE_KEYS)),
}


def resolve_pair(spec) -> tuple:
    """(gmm_a, gmm_b, reference) from a pair preset name or inline object."""
    f = _require(_doc(spec), "", _PAIR_KEYS)
    return f["model_a"], f["model_b"], f.get("reference", {})


def resolve_scene(spec) -> MvScene:
    return MvScene.from_dict(_doc(spec))
