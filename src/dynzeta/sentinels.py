"""Sentinels used for valuations and algebraicity markers.

INFINITY is ``math.inf``, the valuation of zero: it exceeds every
integer, and adding an integer to it gives infinity again.  Code that
returns the valuation of zero hands back this very object, so ``v is
INFINITY`` identifies it.  ``0 * INFINITY`` is NaN rather than an error;
no code path multiplies the valuation of zero, because the additive
valuation (``twisted.v_phi_pow_minus``) returns INFINITY before scaling
its base.
"""

import math

INFINITY = math.inf
# Marker for a quantity with no finite multiplicative order.
TRANSCENDENTAL = "TRANSCENDENTAL"
