"""Shifted-window transformer for binary image-quality classification.

Everything runs on a small numpy autodiff engine; no deep-learning
framework is required. Submodules:

- ``tensor``: reverse-mode autodiff primitives
- ``swin``: architecture, parameter/FLOP accounting
- ``augment``: training-time image augmentation
- ``data``: synthetic quality-assessment datasets and image IO
- ``train``: optimizer, schedules, training loop, metrics, checkpoints
- ``cli``: command-line entry points

Importing the package sets the process's heap policy (see set_heap_policy).
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc mallopt parameters, and the values its dynamic thresholds top out at
# on 64-bit: a freed block of up to 32 MiB goes back to the heap, not to the
# system, and the top of the heap is trimmed only past 64 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = {_M_MMAP_THRESHOLD: 32 << 20, _M_TRIM_THRESHOLD: 64 << 20}


def set_heap_policy() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at
    64 MiB, for the whole process. Every forward allocates its activations
    afresh; with the thresholds fixed, the freed ones stay on the heap and
    the next forward reuses them, instead of faulting fresh pages in.
    Returns whether the policy was set: off glibc it does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY.items())


set_heap_policy()
