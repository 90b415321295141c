"""Return the C heap's free pages to the operating system.

numpy takes arrays below glibc's mmap threshold from the C heap, and
glibc raises that threshold (up to 32 MiB) each time it unmaps a larger
block, so after the first big array most numpy temporaries live there.
glibc gives freed heap pages back only from the top of the heap: one
small live block above a freed array keeps the whole array resident.
How much a numpy-heavy step leaves resident then depends on where its
blocks happened to land, which shifts with the environment, the
arguments and earlier work, not on what is still alive.  Python objects
come from their own arenas and do not reuse those pages, so the
object-heavy steps that follow stack on top of them.
"""

from __future__ import annotations

import ctypes


def _load_malloc_trim():
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None  # not glibc: nothing to release this way
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn


_MALLOC_TRIM = _load_malloc_trim()


def release_free_heap() -> bool:
    """Give every free page of the C heap back to the OS; False if unsupported."""
    if _MALLOC_TRIM is None:
        return False
    _MALLOC_TRIM(0)
    return True
