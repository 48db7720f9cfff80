"""Shared exception types."""


class InfeasibleError(ValueError):
    """A computation whose cost would blow past a hard cap (2^k enumeration,
    2^k oracle or histogram buckets). The message names the cap
    and the cheaper route, if one exists."""
