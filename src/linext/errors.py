"""Shared exception types."""


class InfeasibleError(ValueError):
    """A computation whose cost would blow past a hard cap (2^k enumeration,
    2^k oracle or histogram buckets). The message names the cap
    and the cheaper route, if one exists. Also a weight walk that could not
    be finished because a forked part could not be started or did not exit
    0, as when the system is out of processes or memory or a part is killed
    from outside (by the OOM killer, say)."""
