"""The per-CTI form of the branch-target buffer.

:meth:`~repro.branchpred.btb.BranchTargetBuffer.simulate` walks a whole
CTI stream in one loop; :func:`access` processes one CTI at a time on the
same buffer state, the reference the tests hold ``simulate`` to.
"""

from repro.branchpred.btb import BranchTargetBuffer


def access(btb: BranchTargetBuffer, pc: int, taken: bool, target: int) -> bool:
    """Process one CTI; returns True when the prediction was correct.

    Correct means: BTB hit, direction predicted right, and (when
    predicted taken) the stored target matches the actual target.
    """
    index = (pc >> 2) & (btb.entries - 1)
    if btb._tags[index] == pc:
        predicted_taken = btb._counters[index] >= 2
        correct = predicted_taken == taken and (
            not predicted_taken or btb._targets[index] == target
        )
        # 2-bit counter update plus target refresh on taken execution.
        if taken:
            if btb._counters[index] < 3:
                btb._counters[index] += 1
            btb._targets[index] = target
        elif btb._counters[index] > 0:
            btb._counters[index] -= 1
        return correct
    # Miss: allocate, weakly biased toward the observed outcome.
    btb._tags[index] = pc
    btb._targets[index] = target
    btb._counters[index] = 2 if taken else 1
    return False
