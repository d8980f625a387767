"""Partial-value-encoded L1 data cache (Section 3.6).

The L1D data array is word-partitioned like the register file, but with a
*two-bit* encoding of each word's upper 48 bits stored on the top die:

====  ==========================================================
00    upper bits are all zeros
01    upper bits are all ones (negative numbers)
10    upper bits equal the upper bits of the referencing address
      (nearby heap pointers)
11    not trivially encodable; stored literally on the lower dies
====  ==========================================================

On a predicted-low-width load only the top die is read; if the encoding
bits say ``11`` the prediction was unsafe and the cache pipeline stalls
one cycle while the remaining 48 bits are fetched — from a *single*
set-associative way, because the tag match has already resolved the hit
way.  Stores know their width at commit and never mispredict: a
compressible store writes the top die only.  L2 fills have no width
prediction and always touch all four dies.

Encodings are kept per 8-byte double word.  A store installs the
encoding of its value; a load observes the double word's installed
encoding, or installs its own value's encoding if the double word was
never stored.  :meth:`repro.cpu.predecode.PreDecodedTrace.dc_columns`
computes those outcomes for a whole trace, and the timing core charges
the stalls and die activity.

``EncodingScheme.ONE_BIT`` is the ablation variant: a single memoization
bit that can only compress the all-zeros upper pattern (the register
file's scheme applied to the cache).
"""

from __future__ import annotations

import enum


class EncodingScheme(enum.Enum):
    """Upper-bit compression scheme for the L1D top-die metadata."""

    TWO_BIT = "two_bit"   # the paper's 00/01/10/11 encoding
    ONE_BIT = "one_bit"   # ablation: all-zeros-only memoization
