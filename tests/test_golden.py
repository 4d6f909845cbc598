"""Every shipped config writes the same bytes as the recorded reference.

``golden_digests.json`` holds the SHA-256 of ``signals.csv`` and
``energy.csv`` for each ``configs/*.cfg``, run in process the way
``cosim run`` does.  A change that moves one output bit fails here.
The sine sources call libm's ``sin`` and the CSVs hold float reprs, so
the digests belong to the platform they were recorded on (CPython 3 on
x86-64 Linux with glibc); a correct tree on another libm may differ.
When a change is meant to alter the outputs, record the digests again:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from cosim.cli import main

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "configs"
GOLDEN = HERE / "golden_digests.json"
OUTPUT_FILES = ("signals.csv", "energy.csv")


def run_digests(config: Path, out: Path) -> dict[str, str]:
    code = main(["run", str(config), "--out", str(out)])
    assert code == 0, f"cosim run {config.name} exited {code}"
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in OUTPUT_FILES}


def shipped_configs():
    return sorted(CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("config", shipped_configs(), ids=lambda p: p.name)
def test_outputs_match_golden_digests(config, tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    assert config.name in recorded, f"no digests recorded for {config.name}"
    assert run_digests(config, tmp_path) == recorded[config.name]


if __name__ == "__main__":
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in shipped_configs():
            digests[config.name] = run_digests(config, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
