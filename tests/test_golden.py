"""Simulated outputs must match the committed goldens byte for byte.

The goldens cover ``to_dict()`` of every corpus kernel, policy and arch, the
fermi sweep CSVs, and digests of the event log and utilization recorders.

Rewrite the goldens with ``python tests/golden/regen.py --update`` only when
a change to the simulated behaviour is intended.
"""

import pytest

from smvirt import corpus_names

from golden.regen import GOLDEN_DIR, golden_files


@pytest.mark.parametrize("kernel_name", corpus_names())
def test_outputs_match_goldens(kernel_name):
    for rel, text in golden_files(kernel_name).items():
        path = GOLDEN_DIR / rel
        assert path.is_file(), f"missing golden {rel}"
        assert path.read_bytes() == text.encode(), f"{rel} differs from its golden"
