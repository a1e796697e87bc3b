"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

It does the kind of work the library's inner loops do (small-integer
arithmetic and swaps in a label list, bytes keys in a dict, a set of
integer masks a few thousand strong) and never calls the library, so its
time moves only with the machine.
"""

from time import perf_counter

_SIZE = 400


def _kernel() -> int:
    labels = list(range(_SIZE))
    seen: dict[bytes, int] = {}
    masks = set()
    acc = 0
    for step in range(8):
        for i in range(1, _SIZE):
            if (labels[i] ^ step) & 3 == 1:
                labels[i - 1], labels[i] = labels[i], labels[i - 1]
        key = bytes(x & 255 for x in labels[:64])
        acc += seen.setdefault(key, len(seen))
        masks.update((x * 2654435761 + step) & 0xFFFFFFFF for x in labels)
    return acc + len(masks)


def gauge() -> float:
    """Seconds of one kernel call (about 1.5 ms on a 2-vCPU Xeon VM)."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
