"""Frozen trace goldens for the Figure 13 synthesizer.

``golden/snoop_traces.json`` holds the sha256 of ``trace.tobytes()``
for every trace the cases below build.  The hashes were recorded from
the per-request synthesizer (one ``TranslationUnit.admit`` call per
victim, ambient and attacker request), so they pin the chain-admission
path to the exact bytes of that model: a change to any draw's order or
any floating-point operation's order shows up here.

Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python tests/side/test_snoop_golden.py --record
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.rnic import cx4, cx5, cx6
from repro.side import CANDIDATE_OFFSETS, SnoopConfig, TraceSynthesizer

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "snoop_traces.json"


def _labelled(seed):
    def build():
        xs, _ = TraceSynthesizer(seed=seed).labelled_traces(per_class=2)
        return list(xs)
    return build


def _own_stream():
    synthesizer = TraceSynthesizer(seed=5)
    return [synthesizer.trace(128), synthesizer.trace(640)]


def _spec(factory):
    def build():
        synthesizer = TraceSynthesizer(spec=factory(), seed=3)
        return [synthesizer.trace(0), synthesizer.trace(576)]
    return build


def _sparse_config():
    config = SnoopConfig(probes_per_point=3, observation_step=16,
                         victim_duty=1.0, ambient_rate=0.0)
    synthesizer = TraceSynthesizer(config=config, seed=7)
    return [synthesizer.trace(offset) for offset in CANDIDATE_OFFSETS[::4]]


def _segment_crossing():
    synthesizer = TraceSynthesizer(seed=4)
    return [synthesizer.trace(offset, file_base=1536)
            for offset in (0, 512, 1024)]


#: Case name -> builder returning the case's traces in a fixed order.
CASES = {
    "labelled_seed0": _labelled(0),
    "labelled_seed9": _labelled(9),
    "own_stream": _own_stream,
    "spec_cx4": _spec(cx4),
    "spec_cx5": _spec(cx5),
    "spec_cx6": _spec(cx6),
    "sparse_config": _sparse_config,
    "file_base_1536": _segment_crossing,
}


def _digests(traces):
    return [hashlib.sha256(trace.tobytes()).hexdigest() for trace in traces]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_traces_match_golden(golden, case):
    assert _digests(CASES[case]()) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_snoop_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(
        {case: _digests(build()) for case, build in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
