"""Byte-for-byte regression of ``verify --format json`` against pinned digests.

``bench/goldens.json`` holds the sha256 of the CLI's stdout for every n <= 4
model at order 12, the quintic at order 8 and the benchmark's deep verify
operations.  The reports are exact, so any change to the kernel or the
pipeline must reproduce them bit for bit.  The file is only read here; it is
regenerated by ``bench/make_goldens.py`` on a commit whose outputs are the
specification.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mahlerq.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"
VERIFY_DIGESTS = {
    key: digest
    for key, digest in json.loads(GOLDENS.read_text())["stdout"].items()
    if key.startswith("verify ")
}


def test_every_verify_golden_is_covered():
    assert len(VERIFY_DIGESTS) == 22


@pytest.mark.parametrize("command", sorted(VERIFY_DIGESTS))
def test_verify_stdout_matches_golden(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[command]
