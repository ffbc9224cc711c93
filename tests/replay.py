"""Masking of the result-document fields that legitimately differ between
replays of the same command: the manifest timestamps and every
``elapsed_seconds``.  Everything else must replay byte for byte.
"""

import re

_VOLATILE = re.compile(
    r'("(?:started|finished)": )"[^"]*"|("elapsed_seconds": )[0-9.e+-]+'
)


def normalize(text):
    """``text`` with each volatile value replaced by the string "X" (so a
    masked document is still valid JSON)."""
    return _VOLATILE.sub(lambda m: (m.group(1) or m.group(2)) + '"X"', text)
