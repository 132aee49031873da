"""Byte-for-byte pins of ``verify --format json`` above the benchmark's orders.

``bench/goldens.json`` pins each model at order 12 and the benchmark's deep
operations at orders 20-28.  Kernel changes that switch on above a
crossover (order 60 and up) would pass every one of those unchanged, so
the sha256 digests below pin the report deeper: each n <= 4 family at
order 40-100, the n = 5 model with k = 1806 at order 10 and one model given
by its weights.  They were computed with the pipeline whose outputs are
the specification and are run through ``mahlerq.cli.main`` in process, as
in ``test_goldens.py``; together they take under two seconds.
"""

import hashlib

import pytest

from mahlerq.cli import main

DEEP_DIGESTS = {
    "verify --model 3,3,3 --order 100 --format json":
        "d528abbb70495807ead1484ef15bb011a91ed26e18d6930d1cf3522bb163914f",
    "verify --model 2,3,6 --order 80 --format json":
        "f8a581ba2a93f17a23c4b0b94b087c15f9bc98628586b729fff26b9387b9d7c6",
    "verify --model 4,4,4,4 --order 60 --format json":
        "425da1b461021222921b1405bb49705efedcc496e72ef837f2de0cb43794d8e6",
    "verify --model 2,3,7,42 --order 40 --format json":
        "66ccc0ba5c015a8c551bd788556a4aeb07d949bcb23e6a71c209c9b2a87595e3",
    "verify --model 2,3,7,43,1806 --order 10 --format json":
        "bb405746c743330d62ca6596a24dc64bd10c2503db9a1b673f2bc59e3669b640",
    "verify --weights 12:4,3,3,2 --order 60 --format json":
        "e9fea8f2fddb09c09c35d8c2f1cea7fd5c9967cfb6914bc0f13a2dd032de74c2",
}


@pytest.mark.parametrize("command", sorted(DEEP_DIGESTS))
def test_deep_verify_stdout_matches_pin(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DIGESTS[command]
