"""Byte-for-byte regression of CLI outputs against pinned digests.

``bench/goldens.json`` holds the sha256 of the CLI's stdout for
``verify --format json`` on every n <= 4 model at order 12, the quintic at
order 8 and the benchmark's deep verify operations, and for ``measure`` on
every model and psi of the benchmark's order-800 sweep.  It also holds the
sha256 of every cache file that ``batch`` writes for ``--n 3 --order 12``
and ``--n 4 --order 10``.  The outputs are exact (a measure is one
correctly rounded division of exact integers), so any change to the kernel
or the pipeline must reproduce them bit for bit.  The file is only read
here; it is regenerated by ``bench/make_goldens.py`` on a commit whose
outputs are the specification.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mahlerq.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "goldens.json").read_text()
)
VERIFY_DIGESTS = {
    key: digest
    for key, digest in GOLDENS["stdout"].items()
    if key.startswith("verify ")
}
MEASURE_DIGESTS = {
    key: digest
    for key, digest in GOLDENS["stdout"].items()
    if key.startswith("measure ")
}
BATCH_DIGESTS = GOLDENS["batch"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_stdout(argv, capsys) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def test_every_verify_golden_is_covered():
    assert len(VERIFY_DIGESTS) == 22


def test_every_golden_is_covered():
    assert len(MEASURE_DIGESTS) == 16
    assert VERIFY_DIGESTS.keys() | MEASURE_DIGESTS.keys() == GOLDENS["stdout"].keys()
    assert len(BATCH_DIGESTS) == 2


@pytest.mark.parametrize("command", sorted(VERIFY_DIGESTS))
def test_verify_stdout_matches_golden(command, capsys):
    out = run_stdout(command.split(), capsys)
    assert sha256(out.encode()) == VERIFY_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(MEASURE_DIGESTS))
def test_measure_stdout_matches_golden(command, capsys):
    out = run_stdout(command.split(), capsys)
    assert sha256(out.encode()) == MEASURE_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(BATCH_DIGESTS))
def test_batch_cache_matches_golden(command, tmp_path, capsys):
    run_stdout([*command.split(), "--jobs", "1", "--cache", str(tmp_path)], capsys)
    digests = {
        path.name.split("__", 1)[0].replace("-", ","): sha256(path.read_bytes())
        for path in tmp_path.glob("*.json")
    }
    assert digests == BATCH_DIGESTS[command]
