"""scripts/build_models.py rebuilds the bundled model files byte for byte.

The script builds each model from Python values and writes it with
dump_model_file, so this pins the dump's bytes on four hand-built models, and
keeps the committed files what the script makes.
"""

from __future__ import annotations

import importlib.util
import sys

from helpers import MODELS_DIR, REPO_ROOT

_spec = importlib.util.spec_from_file_location("build_models", REPO_ROOT / "scripts" / "build_models.py")
build_models = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = build_models
_spec.loader.exec_module(build_models)

BUNDLED = ("extensional.json", "modal.json", "modal_tense.json", "modal_tense_location.json")


def test_build_models_writes_the_bundled_files(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(build_models, "MODELS_DIR", tmp_path)
    build_models.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BUNDLED)
    for name in BUNDLED:
        assert (tmp_path / name).read_bytes() == (MODELS_DIR / name).read_bytes(), name
