"""Byte-identity guard for the rule lists no other digest reaches.

`tests/test_byte_identity.py` pins the shipped bundles and the CLI reports;
this file pins the dumped q -> 1 limits of both drinfeldian algebras with
and without the central letter, and the dumped classical-sl2, which no
bundle or report holds.  A dump holds every rule whole (label, lead and
replacement, in order).  The digests were recorded before a refactoring of
how rules are installed; a change meant to alter one of these has to update
it here and say why.
"""

import hashlib

import pytest

from loopdeform import get_presentation
from loopdeform.presentations import build_classical_sl2, specialize
from loopdeform.serial import dump_presentation

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
    "classical-sl2":
        "070d4ac53343783743a9490b1727817eaf0dae283db58abc11fd567246db17bf",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _limit(algebra, assignments):
    return specialize(get_presentation(algebra), dict(assignments))


def _case_id(algebra, assignments):
    return " ".join([algebra] + ["%s=%s" % kv for kv in assignments])


@pytest.mark.parametrize("algebra,assignments", LIMITS,
                         ids=[_case_id(*c) for c in LIMITS])
def test_limit_dump_unchanged(algebra, assignments):
    text = dump_presentation(_limit(algebra, assignments))
    assert _digest(text) == DUMP_DIGESTS[_case_id(algebra, assignments)]


def test_classical_dump_unchanged():
    text = dump_presentation(build_classical_sl2())
    assert _digest(text) == DUMP_DIGESTS["classical-sl2"]
