"""Byte-identity guard for the rule lists the limits build and the rule
metadata the limit machinery reads.

`tests/test_byte_identity.py` pins the shipped bundles and the CLI reports;
this file pins what those do not reach: the dumped q -> 1 limits of both
drinfeldian algebras with and without the central letter, and the
``(label, kind, meta)`` triples of every relation (``meta`` is not
serialized, but ``_structural_q1_limit`` and ``_drop_central_letters`` read
it).  The digests were recorded before a refactoring of how rules are
installed; a change meant to alter one of these has to update it here and
say why.
"""

import hashlib

import pytest

from loopdeform import get_presentation
from loopdeform.presentations import build_classical_sl2, specialize
from loopdeform.serial import dump_presentation

ALL_ALGEBRAS = ("uq-sl2", "uq-sl3", "drinfeldian-sl2", "drinfeldian-sl3",
                "yangian-sl2", "twisted-yangian-sl2")

LIMITS = (
    ("drinfeldian-sl2", (("q", 1),)),
    ("drinfeldian-sl2", (("q", 1), ("kdelta", 1))),
    ("drinfeldian-sl3", (("q", 1),)),
    ("drinfeldian-sl3", (("q", 1), ("kdelta", 1))),
)

DUMP_DIGESTS = {
    "drinfeldian-sl2 q=1":
        "26414f0515b0b85c7cde0e055c2553d59a5f1938fda7736e4f087904bf0f4c2f",
    "drinfeldian-sl2 q=1 kdelta=1":
        "c1b798cf325abfafa11d0136d3bc919ce63927b5af5fcbeb651dd856203f9ea6",
    "drinfeldian-sl3 q=1":
        "94dec8620153c84e2153a110ccab6cf0dcd3d80b6f055bdbde58598d5f497f11",
    "drinfeldian-sl3 q=1 kdelta=1":
        "c63ea017bc61336344d46d748a010b990bfaaae7ddeadf110d843ca0a4f85ab9",
}

META_DIGESTS = {
    "uq-sl2":
        "300319995f84c2e44976560b23958f2f5458bad0cb80a3951744e5ebaa40e880",
    "uq-sl3":
        "b25b029defd33eef1e0c7c5c4dfa75e567928fbf6824d37da0e8150684c441a5",
    "drinfeldian-sl2":
        "47f6e27889be1897afe87adb0cb03a78ddb87a67341916515d85a8244a256f03",
    "drinfeldian-sl3":
        "44974832216b1d096e966f3dde94c1c98a3b567a275a2babcdc11d733aa57bed",
    "yangian-sl2":
        "cc36f5aa4610091f21fe6de79e9ae98564af5556e6badf2773ddf0fcf51c8e18",
    "twisted-yangian-sl2":
        "cc36f5aa4610091f21fe6de79e9ae98564af5556e6badf2773ddf0fcf51c8e18",
    "classical-sl2":
        "ce6dc02b0b5a97be28d765dcc94cf3716134581b7fcf4c6dfb45db0c62a37fc0",
    "drinfeldian-sl2 q=1":
        "79604e0b3ab808a5626188c02500b4ec714487749adc56f1d9b6aa12575799d4",
    "drinfeldian-sl2 q=1 kdelta=1":
        "f272d74e4df7982c2a011ed7f0f5dcc69d9dcb6e2688ceade59457ddf8911e8b",
    "drinfeldian-sl3 q=1":
        "82ca653109b8d39aa3aa76b0b91a0729f35016e92d7a62e1635146b5f29fe842",
    "drinfeldian-sl3 q=1 kdelta=1":
        "d845a7b6a619985d047afcc68393189dbaef0962df2432ea112a7ef87aeb6b7c",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _limit(algebra, assignments):
    return specialize(get_presentation(algebra), dict(assignments))


def _case_id(algebra, assignments):
    return " ".join([algebra] + ["%s=%s" % kv for kv in assignments])


def _meta_text(p):
    return repr([(rel.label, rel.kind, sorted(rel.meta.items()))
                 for rel in p.relations])


@pytest.mark.parametrize("algebra,assignments", LIMITS,
                         ids=[_case_id(*c) for c in LIMITS])
def test_limit_dump_unchanged(algebra, assignments):
    text = dump_presentation(_limit(algebra, assignments))
    assert _digest(text) == DUMP_DIGESTS[_case_id(algebra, assignments)]


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_rule_metadata_unchanged(algebra):
    assert _digest(_meta_text(get_presentation(algebra))) == META_DIGESTS[algebra]


def test_classical_rule_metadata_unchanged():
    text = _meta_text(build_classical_sl2())
    assert _digest(text) == META_DIGESTS["classical-sl2"]


@pytest.mark.parametrize("algebra,assignments", LIMITS,
                         ids=[_case_id(*c) for c in LIMITS])
def test_limit_rule_metadata_unchanged(algebra, assignments):
    text = _meta_text(_limit(algebra, assignments))
    assert _digest(text) == META_DIGESTS[_case_id(algebra, assignments)]
