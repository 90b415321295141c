"""release_free_heap returns freed C-heap pages that glibc would keep."""

import os

import pytest

from qsteiner import heap

PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE / 2**20


@pytest.mark.skipif(
    heap._MALLOC_TRIM is None or not os.path.exists("/proc/self/statm"),
    reason="needs glibc and /proc",
)
def test_release_returns_pages_pinned_below_live_blocks():
    base = resident_mb()
    # 100 kB blocks come from the heap (below glibc's mmap threshold); a
    # 20 kB live block after each one (too large for the small free
    # chunks lying around) keeps the top-only trim from returning any of
    # them once they are freed
    blocks, pins = [], []
    for _ in range(300):
        blocks.append(b"x" * 100_000)
        pins.append(b"p" * 20_000)
    del blocks
    held = resident_mb() - base
    if held < 20:
        pytest.skip("this allocator returned the blocks on its own")
    assert heap.release_free_heap()
    assert resident_mb() - base < held - 20
    assert len(pins) == 300
