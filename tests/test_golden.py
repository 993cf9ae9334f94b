"""Simulated outputs must match the committed goldens byte for byte.

The goldens cover ``to_dict()`` of every corpus kernel, policy and arch,
of a shrunk fermi SM that the launches oversubscribe, and of four large
launches on fermi, which oversubscribe it under zorua, the fermi sweep
CSVs, digests of the event log and utilization recorders on the same
archs, and the claims table: range, cliffs and porting loss of every
recommended grid.

Rewrite the goldens with ``python tests/golden/regen.py --update`` only when
a change to the simulated behaviour is intended.
"""

import json

import pytest

from smvirt import corpus_names

from golden.regen import (
    CLAIMS,
    GOLDEN_DIR,
    LARGE_LAUNCHES,
    claims_text,
    describe,
    golden_files,
)


@pytest.mark.parametrize("kernel_name", corpus_names())
def test_outputs_match_goldens(kernel_name):
    for rel, text in golden_files(kernel_name).items():
        path = GOLDEN_DIR / rel
        assert path.is_file(), f"missing golden {rel}"
        assert path.read_bytes() == text.encode(), f"{rel} differs from its golden"


def test_claims_match_golden():
    text = claims_text()
    old = (GOLDEN_DIR / CLAIMS).read_bytes().decode()
    assert old == text, "\n".join(describe(CLAIMS, old, text))


def test_the_shrunk_sm_goldens_reach_the_guard_and_swap():
    def zorua(name):
        return json.loads((GOLDEN_DIR / f"run/{name}.zorua.fermi_shrunk.json").read_text())

    assert zorua("mixed_phase")["guard_admissions"] > 0
    assert zorua("mixed_phase")["reg_hit_rate"] < 0.9
    assert zorua("scratch_cliff")["scratch_hit_rate"] < 1.0
    assert zorua("membound")["slot_hit_rate"] < 1.0  # it parks warps


def test_the_large_launch_goldens_touch_swap():
    for name, counts in LARGE_LAUNCHES.items():
        for blocks in counts:
            path = GOLDEN_DIR / f"run/{name}.zorua.fermi_{blocks}_blocks.json"
            doc = json.loads(path.read_text())
            assert min(doc["reg_hit_rate"], doc["scratch_hit_rate"]) < 1.0, (name, blocks)


def test_regen_says_what_differs_in_each_kind_of_golden():
    old, new = '{"a": 1, "b": 2}', '{"a": 1, "b": 3, "c": 0}'
    assert describe("run/k.zorua.fermi.json", old, new) == ["keys: b, c"]
    old, new = '{"baseline": "x", "wlm": "y"}', '{"baseline": "z", "wlm": "y"}'
    assert describe("recorders/k.fermi.json", old, new) == ["policies: baseline"]
    old, new = "h\n1\n2\n", "h\n1\n3\n4\n"
    assert describe("sweep/k.fermi.csv", old, new) == ["- 2", "+ 3", "- (none)", "+ 4"]
    old = '{"k": {"zorua": {"range": {"fermi": 0.1, "kepler": null}, "cliffs": 0}}}'
    new = '{"k": {"zorua": {"range": {"fermi": 0.2, "kepler": null}, "cliffs": 1}}}'
    assert describe(CLAIMS, old, new) == [
        "k zorua range fermi: 0.1 -> 0.2",
        "k zorua cliffs: 0 -> 1",
    ]
    old, new = '{"k": {"zorua": {"cliffs": 0}}}', '{"k": {"wlm": {"cliffs": 0}}}'
    assert describe(CLAIMS, old, new) == [
        "k zorua cliffs: 0 -> (none)",
        "k wlm cliffs: (none) -> 0",
    ]
