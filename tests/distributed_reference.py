"""Per-turn measurement of the distributed protocol, kept as the reference
for the trace rows that ``mrcwpt.distributed._rebuild_rows`` forms after a
run.

A turn measures at the loads it starts from. These functions read that
measurement from a ``_Loads`` before its turn, with the plain-float
expressions the protocol used when it formed each row inside the loop.
"""


def feedback(loads, p):
    """The feedback bits of powers ``p``."""
    return [pk >= lo for pk, lo in zip(p, loads.req_lo)]


def measured(loads):
    """(p_tx, p, fb) at the current loads, as the next turn measures them."""
    denom = loads.denominator()
    p = loads.powers(denom)
    return loads.half_v2 / denom, p, feedback(loads, p)
