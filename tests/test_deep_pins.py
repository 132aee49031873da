"""Byte-for-byte pins of ``verify`` and ``series`` JSON above the benchmark's orders.

``bench/goldens.json`` pins each model at order 12 and the benchmark's deep
operations at orders 20-28.  Kernel changes that switch on above a
crossover (order 60 and up) would pass every one of those unchanged, so
the sha256 digests below pin the report deeper: each n <= 4 family at
order 40-100, the n = 5 model with k = 1806 at order 10 and one model given
by its weights.  They were computed with the pipeline whose outputs are
the specification and are run through ``mahlerq.cli.main`` in process, as
in ``test_goldens.py``; together they take under two seconds.

``series --format json`` is pinned the same way for every ``--which`` key
at (3,3,3)@60, the weights model 5:2,2,1 at order 20 and
(2,3,7,43,1806)@8, so the maps and their reversions are pinned apart from
the report that reads them.

Every golden and every pin above reads all seven report checks as true, so
a verdict that was computed inverted would pass them all.  The weights
models 5:2,2,1 and 9:4,3,2 at order 12 have false verdicts, and their
``verify`` output is pinned here, with the 5:2,2,1 verdicts also spelled
out.  ``pf`` and ``enumerate`` print rationals and counts, and their bytes
are pinned too.  Each of these runs takes a few milliseconds.
"""

import hashlib

import pytest

from mahlerq import Model, integrality_report
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

SERIES_DIGESTS = {
    "series --model 3,3,3 --order 60 --which g0 --format json":
        "96dd68c303c3f3417b0beed4d37269d84338ee3057b14debbdd6f4a7df3ac3cc",
    "series --model 3,3,3 --order 60 --which h --format json":
        "b310fcc9b8c04f76b8c058c0c1f7e579e8242e7f9d83062f58e8f557d43aa4de",
    "series --model 3,3,3 --order 60 --which f --format json":
        "d82ce8f48407182ea330140217ce01cd3ac7834672557682c52d00e4d86541f7",
    "series --model 3,3,3 --order 60 --which Q --format json":
        "986fbbd509dcabf3ffeab129e9f651c19bf30df2195246cf88bd64ca7ec79e18",
    "series --model 3,3,3 --order 60 --which q --format json":
        "b3a5ed711c123862e0eb3e6ea3d9d80e664720d835015aed6ae5d3e559f93a11",
    "series --model 3,3,3 --order 60 --which zq --format json":
        "263a097e70199c9298216d95efc4059a6717a6f298fbd1f196c3cb8d804be412",
    "series --model 3,3,3 --order 60 --which zQ --format json":
        "d3be0a23400292ff49f8058e64732b28260043b8280eb2b98aaeebb4e9de340f",
    "series --weights 5:2,2,1 --order 20 --which g0 --format json":
        "d1d3b23e2496b1bf05b2a24c958db487c031f983527ba1dfedb2ff9315921e75",
    "series --weights 5:2,2,1 --order 20 --which h --format json":
        "0c9bf99bd87369c14df35032a954ef983c58f18c4d77d25c300899ba02a771aa",
    "series --weights 5:2,2,1 --order 20 --which f --format json":
        "3be4222984bd175a6744c3fb5873a8befb4d1fb0efe0937a92a6e17e6add32d2",
    "series --weights 5:2,2,1 --order 20 --which Q --format json":
        "a47f20d59e9ef62e43863ccddeaebbb1aaf5f517321bddf1c3aafd56ce70ac55",
    "series --weights 5:2,2,1 --order 20 --which q --format json":
        "0114066908e7644f92eee81827244ff7d1a4dfca2669c88bafa62e3a77453f18",
    "series --weights 5:2,2,1 --order 20 --which zq --format json":
        "2df82a23b78e74508ed3d786c7e9ffb0ee8944506bfdafdfdddeb4cfb92406cd",
    "series --weights 5:2,2,1 --order 20 --which zQ --format json":
        "6bb1da9f241a48d22a65bf4af9d57b5e9f722ecfa44031ee9e75dbe85f862b9e",
    "series --model 2,3,7,43,1806 --order 8 --which g0 --format json":
        "424329a1570f360a3f8abac2999f609f192c978d5e27abd91bf4c8543ef875fc",
    "series --model 2,3,7,43,1806 --order 8 --which h --format json":
        "31e71a0f179036aa937cfcafc3ed07fcf7fe952338b865703390a5b89e64772c",
    "series --model 2,3,7,43,1806 --order 8 --which f --format json":
        "7dc292c0421d4cc531fed96eef839eb1b0c38ea94a2d1b428ede1bea4c481cfb",
    "series --model 2,3,7,43,1806 --order 8 --which Q --format json":
        "769e1f9781243fb6eb8ebb7d518a23cb02798d3ec4d0176b30e398318d291f2a",
    "series --model 2,3,7,43,1806 --order 8 --which q --format json":
        "4405ff841eddac4469e3c9b6ebeabe21da18301726d4e0fd0b55a6d29a7d9ed5",
    "series --model 2,3,7,43,1806 --order 8 --which zq --format json":
        "4f6453f6675542a5133f6cd35b56c67debf1a7ffb7f2f2e161fa70fce0d38dd3",
    "series --model 2,3,7,43,1806 --order 8 --which zQ --format json":
        "ede808bd17d70d5c30b86a975f11f592ed0f09a107f1c7bf4c4197b0297af33f",
}

VERDICT_DIGESTS = {
    "verify --weights 5:2,2,1 --order 12 --format json":
        "822f35bd6488f8a9d455c2f849ff4654f5761de0c7dffc891d7e8885aea973e2",
    "verify --weights 5:2,2,1 --order 12 --format table":
        "d6bb72d27cd359af4b001eb3fc0f252b2639c04f519a354249e337830e60c3ce",
    "verify --weights 9:4,3,2 --order 12 --format json":
        "5fadf916fe3fcb4eb188b40a7cf98476855b48e60b3e301f81fb475d840fc2b8",
    "pf --model 2,3,7,42 --format table":
        "c606fb6f4466980af950921cb17e59399f6abeda9e94a07b13f4e5d542a2507b",
    "pf --model 2,3,7,42 --format json":
        "4ea4aa049e1d6592f0789346e2d14e80c0f33edd73fb0e6dca7d3c2a44080860",
    "enumerate --n 4":
        "947861922f43c6515dd7a7da88cef6cf29e1c1bf67b46730d06dc0aa44f820b7",
}


@pytest.mark.parametrize("command", sorted(DEEP_DIGESTS))
def test_deep_verify_stdout_matches_pin(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(SERIES_DIGESTS))
def test_series_stdout_matches_pin(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(VERDICT_DIGESTS))
def test_verdict_stdout_matches_pin(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERDICT_DIGESTS[command]


def test_weights_model_verdicts():
    report = integrality_report(Model.from_weights(5, (2, 2, 1)), 12)
    assert list(report.checks.items()) == [
        ("product_plain", True),
        ("product_alt", True),
        ("lagrange_integral", False),
        ("g0_in_q_integral", False),
        ("g0_in_Q_integral", True),
        ("proposition_qQ_integral", False),
        ("conjecture1_root_integral", False),
    ]
