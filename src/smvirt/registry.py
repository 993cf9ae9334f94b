"""The warp and block registry every admission policy builds on.

One SM's live blocks and their warps, keyed by id.  Registry is the only
code that creates their records or drops them: a block and its warps
leave when its last warp finishes, so the registry holds live blocks
only.  Warps come and go a block at a time, so ``warps`` lists each
block's warps together, in block order.  A record starts with no set
demand: only zorua admission (coordinator.py) turns a phase specifier
into the sets a warp needs.  The registry also keeps, per scheduler
(wid mod schedulers), the schedulable warps in wid order, and their
count: the one index the engine issues from, kept by _set_state.
Admission wakes its own warps: the engine sets wake before each
occasion's hooks, an admitted warp issues no earlier, and admitted
lists the warps admitted since the engine last cleared it.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional


class WarpState(enum.Enum):
    PENDING_THREAD = "pending_thread"
    PENDING_SCRATCH = "pending_scratch"
    PENDING_REG = "pending_reg"
    SCHEDULABLE = "schedulable"
    AT_BARRIER = "at_barrier"
    PARKED = "parked"  # at barrier with slot and scheduler state swapped out
    FINISHED = "finished"


# per-event aliases: an Enum member lookup costs far more than a global name
_SCHEDULABLE = WarpState.SCHEDULABLE
_AT_BARRIER = WarpState.AT_BARRIER
_FINISHED = WarpState.FINISHED
# scheduler lists are ordered by warp id
_wid = attrgetter("wid")


@dataclass(slots=True)
class WarpRecord:
    wid: int
    block_id: int
    state: WarpState = WarpState.PENDING_THREAD
    # the current phase's demand, kept by Coordinator only
    reg_sets_needed: int = 0
    scratch_sets_needed: int = 0
    enqueue_seq: int = -1
    barrier_seq: int = -1
    # engine-side scheduling fields
    pc: int = 0
    next_ready: int = 0
    acc_counter: int = 0


@dataclass(slots=True)
class BlockRecord:
    bid: int
    warp_ids: tuple[int, ...]
    barrier_arrivals: int = 0
    finished_warps: int = 0
    size: int = field(init=False)  # its warp count, read on every barrier arrival and finish

    def __post_init__(self):
        self.size = len(self.warp_ids)


class Registry:
    """Live warps and blocks of one SM, and the warps it admitted."""

    def __init__(self, schedulers: int):
        self.warps: dict[int, WarpRecord] = {}
        self.blocks: dict[int, BlockRecord] = {}
        self.wake = 0  # the first cycle a warp admitted now may issue in
        self.admitted: list[WarpRecord] = []
        # per scheduler, its schedulable warps in wid order, and their count
        self.sched_lists: tuple[list[WarpRecord], ...] = tuple([] for _ in range(schedulers))
        self.n_schedulable = 0

    def _set_state(self, w: WarpRecord, state: WarpState):
        """The one place a warp changes state; keeps the scheduler lists, where
        a warp past the tail, as each of a newly arrived block is, appends."""
        old = w.state
        if old is not state:
            if old is _SCHEDULABLE:
                part = self.sched_lists[w.wid % len(self.sched_lists)]
                del part[bisect.bisect_left(part, w.wid, key=_wid)]
                self.n_schedulable -= 1
            elif state is _SCHEDULABLE:
                part = self.sched_lists[w.wid % len(self.sched_lists)]
                if part and part[-1].wid > w.wid:
                    bisect.insort(part, w, key=_wid)
                else:
                    part.append(w)
                self.n_schedulable += 1
        w.state = state

    def _admit(self, w: WarpRecord):
        """Make a warp schedulable from wake on and list it admitted."""
        self._set_state(w, _SCHEDULABLE)
        if w.next_ready < self.wake:
            w.next_ready = self.wake
        self.admitted.append(w)

    def on_block_arrival(self, bid: int, wids: tuple[int, ...]):
        """Register a block and its warps, none of them needing any sets yet."""
        self.blocks[bid] = BlockRecord(bid=bid, warp_ids=wids)
        for wid in wids:
            self.warps[wid] = WarpRecord(wid=wid, block_id=bid)

    def on_barrier(self, wid: int) -> bool:
        """Hold the warp at its barrier; True when it was the last of its
        block to arrive."""
        w = self.warps[wid]
        self._set_state(w, _AT_BARRIER)
        block = self.blocks[w.block_id]
        block.barrier_arrivals += 1
        return block.barrier_arrivals == block.size

    def release_barrier(self, bid: int):
        """Admit every warp of the block still waiting at its barrier."""
        block = self.blocks[bid]
        for wid in block.warp_ids:
            w = self.warps[wid]
            if w.state is _AT_BARRIER:
                self._admit(w)
        block.barrier_arrivals = 0

    def _retire(self, wid: int) -> Optional[BlockRecord]:
        """Count the warp finished; when that completes its block, drop the
        block and its warps and return the block."""
        w = self.warps[wid]
        self._set_state(w, _FINISHED)
        block = self.blocks[w.block_id]
        block.finished_warps += 1
        if block.finished_warps < block.size:
            return None
        del self.blocks[block.bid]
        for bw in block.warp_ids:
            del self.warps[bw]
        return block

    def registry_errors(self) -> list[str]:
        """A registry holds live blocks only, the block of every warp, the
        warps a block at a time, and scheduler lists of its own records of
        exactly the schedulable warps, in wid order, with their count."""
        errors = [
            f"block {b.bid} completed but is still registered"
            for b in self.blocks.values()
            if b.finished_warps >= b.size
        ]
        errors.extend(
            f"warp {w.wid} belongs to unregistered block {w.block_id}"
            for w in self.warps.values()
            if w.block_id not in self.blocks
        )
        listed = [wid for b in self.blocks.values() for wid in b.warp_ids if wid in self.warps]
        if list(self.warps) != listed:
            errors.append("warps are not listed a block at a time, in block order")
        n = len(self.sched_lists)
        for sid, part in enumerate(self.sched_lists):
            wids = [w.wid for w in part]
            schedulable = sorted(
                w.wid for w in self.warps.values() if w.state is _SCHEDULABLE and w.wid % n == sid
            )
            if wids != sorted(wids):
                errors.append(f"scheduler {sid} list is not in wid order")
            if sorted(wids) != schedulable:
                errors.append(f"scheduler {sid} list is not its schedulable warps")
            if any(w is not self.warps.get(w.wid) for w in part):
                errors.append(f"scheduler {sid} list holds a record the registry does not")
        listed = sum(map(len, self.sched_lists))
        if self.n_schedulable != listed:
            errors.append(f"{self.n_schedulable} warps counted schedulable, {listed} listed")
        return errors
