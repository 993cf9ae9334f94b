"""Launch-size linearity, checked by counting work rather than timing it.

Each case runs one corpus kernel, phase-compiled, on one-SM fermi at N and
at 4N blocks.  Per simulated instruction it compares how often each smvirt
function is entered (sys.setprofile "call" events, generator resumes
included), and it compares the tracemalloc peak of the two launches.  Work
or memory that grows faster than the launch, such as a scan of every warp
the launch ever created, raises one of the two.  A loop inside one frame
makes no call events, so a scan written as a filtered generator or a plain
for loop shows only if it keeps dead records alive.

N is a little above what zorua admits at launch (64 logical warps and 16
logical blocks: 4 blocks of reg_cliff, 8 of mixed_phase, 16 of
scratch_cliff), which keeps the 36 launches near 3.5 s.  At that size the
N launch is partly set-up, so dispatch work per instruction still grows
with the launch: the worst growth measured is 2.48x, by
Coordinator.can_accept_block on mixed_phase, and the worst peak growth is
1.44x, also zorua on mixed_phase.  The bounds leave about 20% above those.
A can_accept_block that scans every warp the launch created grows its
generator's calls 4.0-5.9x and the peak 2.5-3.0x under zorua.
"""

import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import smvirt
from smvirt.corpus import corpus_kernel
from smvirt.engine import run
from smvirt.phase_compiler import annotate_phases
from smvirt.resource_maps import get_arch

PACKAGE = str(Path(smvirt.__file__).parent)
FERMI_ONE_SM = replace(get_arch("fermi"), num_sms=1)
BLOCKS = {"reg_cliff": 6, "mixed_phase": 10, "scratch_cliff": 20}
MIN_CALLS = 20  # fewer calls at N blocks make too coarse a ratio
CALL_GROWTH = 3.0  # calls per instruction, 4N over N
PEAK_GROWTH = 1.75  # tracemalloc peak, 4N over N


def _sized(kernel, blocks):
    return replace(kernel, resource_spec=replace(kernel.resource_spec, num_blocks=blocks))


def _calls(kernel, policy):
    """Calls into the package per function, and the instructions issued."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        issued = run(kernel, policy, FERMI_ONE_SM).issued_instructions
    finally:
        sys.setprofile(None)
    return {c: n for c, n in counts.items() if c.co_filename.startswith(PACKAGE)}, issued


def _peak(kernel, policy):
    tracemalloc.start()
    try:
        run(kernel, policy, FERMI_ONE_SM)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy", ["baseline", "wlm", "zorua"])
@pytest.mark.parametrize("name", list(BLOCKS))
def test_work_and_memory_grow_no_faster_than_the_launch(name, policy):
    kernel = annotate_phases(corpus_kernel(name))
    n = BLOCKS[name]
    small, small_issued = _calls(_sized(kernel, n), policy)
    large, large_issued = _calls(_sized(kernel, 4 * n), policy)
    assert large_issued == 4 * small_issued
    growth = {
        f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_name}": (
            large.get(code, 0) / (4 * calls)
        )
        for code, calls in small.items()
        if calls >= MIN_CALLS
    }
    # the registry keeps the schedulable lists on every state change
    assert any(f.startswith("registry.py:") and f.endswith(" _set_state") for f in growth)
    assert {f: round(g, 2) for f, g in growth.items() if g > CALL_GROWTH} == {}
    small_peak = _peak(_sized(kernel, n), policy)
    large_peak = _peak(_sized(kernel, 4 * n), policy)
    assert large_peak <= PEAK_GROWTH * small_peak
