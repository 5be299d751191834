"""Named preset models and scenes shipped as JSON data files.

A preset file carries a "kind" of gmm, pair, or scene. The directory can be
overridden with the COUPLED_SAMPLER_PRESETS environment variable, which is
how acceptance runs pin alternate inputs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .models import Gmm, MvScene, _json_number

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


def load_preset(name: str) -> dict:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid preset name {name!r}")
    path = preset_dir() / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown preset {name!r} (searched {path.parent})")
    doc = json.loads(path.read_text())
    if doc.get("kind") not in ("gmm", "pair", "scene"):
        raise ValueError(f"preset {name!r} has unsupported kind {doc.get('kind')!r}")
    return doc


def gmm_preset_names() -> list:
    return [n for n in list_presets() if load_preset(n)["kind"] == "gmm"]


def resolve_gmm(spec) -> Gmm:
    """A Gmm from a preset name or an inline dict."""
    if isinstance(spec, str):
        doc = load_preset(spec)
        if doc["kind"] != "gmm":
            raise ValueError(f"preset {spec!r} is a {doc['kind']}, expected a gmm")
        return Gmm.from_dict(doc)
    if isinstance(spec, dict):
        return Gmm.from_dict(spec)
    raise ValueError("model must be a preset name or an inline mixture dict")


def _check_reference(reference) -> dict:
    """A pair's reference: an object whose coupling_median_lambda0, if
    present, is a finite JSON number."""
    if not isinstance(reference, dict):
        raise ValueError(f"reference: expected an object, got {reference!r}")
    key = "coupling_median_lambda0"
    if key in reference:
        _json_number(reference[key], f"reference.{key}")
    return reference


def resolve_pair(spec) -> tuple:
    """(gmm_a, gmm_b, reference_dict) from a pair preset name or dict."""
    if isinstance(spec, str):
        doc = load_preset(spec)
        if doc["kind"] != "pair":
            raise ValueError(f"preset {spec!r} is a {doc['kind']}, expected a pair")
    elif isinstance(spec, dict):
        doc = spec
    else:
        raise ValueError("pair must be a preset name or an inline dict")
    return (
        Gmm.from_dict(doc["model_a"]),
        Gmm.from_dict(doc["model_b"]),
        _check_reference(doc.get("reference", {})),
    )


def resolve_scene(spec) -> MvScene:
    if isinstance(spec, str):
        doc = load_preset(spec)
        if doc["kind"] != "scene":
            raise ValueError(f"preset {spec!r} is a {doc['kind']}, expected a scene")
        return MvScene.from_dict(doc)
    if isinstance(spec, dict):
        return MvScene.from_dict(spec)
    raise ValueError("scene must be a preset name or an inline dict")
