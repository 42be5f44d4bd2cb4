"""Byte-identity guard: serialized bundles and CLI reports must not move.

Each case hashes bytes the package emits -- a dumped bundle (presentation,
Hopf appendix and shipped witness reps) or a JSON report with the
``elapsed_ms`` field removed -- and compares the SHA-256 digest with the one
recorded before a refactoring.  A change that is meant to alter one of these
outputs has to update its digest here and say why.
"""

import hashlib
import json

import pytest

from loopdeform import build_hopf, default_reps, get_presentation
from loopdeform.cli import main
from loopdeform.serial import dump_bundle

ALL_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                "yangian-sl2", "twisted-yangian-sl2")

#: the example commands of the README, then `verify <algebra> all` for each
#: algebra not already among them
CLI_CASES = (
    ("verify", "yangian-sl2", "all"),
    ("limit", "drinfeldian-sl2", "q->1", "kdelta=1"),
    ("limit", "drinfeldian-sl2", "eta=0"),
    ("limit", "uq-sl2", "q=1"),
    ("twist", "--order", "3", "--check", "all"),
    ("cybe", "--r", "twisted-yangian"),
    ("cybe", "--r", "sum:rational+dj_constant"),
) + tuple(("verify", a, "all") for a in ALL_ALGEBRAS if a != "yangian-sl2")

DIGESTS = {
    "bundle uq-sl2":
        "459038acc1e30a00ef656a066d26c65f7973d0c29899836380fb8b79d48a5463",
    "bundle uq-sl3":
        "7e216c0576b5c3ee65c4468f7eac969218374928ab1ebc837085c02f217817fc",
    "bundle drinfeldian-sl2":
        "7e0efc21c7a7c925d12aa04a12ad15eb7f0c57fae2369d5e21a76271b349bd6e",
    "bundle drinfeldian-sl3":
        "67eb25da2ee5e0515f4f0d1df3c5210fc0c4b30d540b4426d14d8d0ef5bd2dd1",
    "bundle yangian-sl2":
        "5edf8073486cd7287a0cff639b0897f43585541cc563a90a4877ef08da04d094",
    "bundle twisted-yangian-sl2":
        "fe42b4dc7fec27369e90c83270d50fc910e61de309cbe8909048419f2e402ee6",
    "verify yangian-sl2 all":
        "010825f5fd7ff52269a2ca1bffa9ea47a7216a50748af25ee337e8e1398558ce",
    "limit drinfeldian-sl2 q->1 kdelta=1":
        "7c651bc8fc1ac5a4066b0eaf664f62d8b90ca8b436b3836c763da7385538d589",
    "limit drinfeldian-sl2 eta=0":
        "661ac54381c81e9aa1653c960c98627301adf6ef7fee16342a8cc8c5f53fef68",
    "limit uq-sl2 q=1":
        "c60c94fd0404564fd2776a625c2e827c855e5514167c3b644221ebd02e56b2a6",
    # config gained "degree_bound": 12, the rewriting bound the twist used;
    # without that key the report hashes to b3a7fd83...eacfcc as before
    "twist --order 3 --check all":
        "64455c9737d99edba5d411651140eabdb3b555373a99218a24903c82a435d2d3",
    "cybe --r twisted-yangian":
        "2850d4bda6237199f3b552b975cc1877acf91061784c5cf403bceb3112e6d468",
    "cybe --r sum:rational+dj_constant":
        "273778db31010df653c3e9bc437e4663b3a709798db9094043334b7ffa6b3fe8",
    "verify uq-sl2 all":
        "9021b60657081bc94b9bccc54e59c132b3c3bfe58d91352e990af7f051c01dc1",
    "verify uq-sl3 all":
        "68a0f5ec141cadbb0fceeea98e02e04b3ec3fb8a0e7815b878defeced4d54d2f",
    "verify drinfeldian-sl2 all":
        "bcafcca219bbc7b5ca47a1eadd48201212b39a430dc7c02c0399b0475a30354a",
    "verify drinfeldian-sl3 all":
        "318b539ee2066b6aecfcb6e88b946efd37e5ea846af2d6769e95dd3c0ce85465",
    "verify twisted-yangian-sl2 all":
        "30e7f4fc58d3c0431792bd6dcc712da32d120fa09df9ebdf06e62ef54dc07ce4",
}


def bundle_bytes(algebra):
    p = get_presentation(algebra)
    return dump_bundle(p, build_hopf(p), default_reps(p)).encode("utf-8")


def report_bytes(argv, path):
    main(list(argv) + ["--json", str(path)])
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["elapsed_ms"]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_bundle_bytes_unchanged(algebra):
    assert _digest(bundle_bytes(algebra)) == DIGESTS["bundle " + algebra]


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_report_bytes_unchanged(argv, tmp_path, capsys):
    data = report_bytes(argv, tmp_path / "report.json")
    capsys.readouterr()
    assert _digest(data) == DIGESTS[" ".join(argv)]
