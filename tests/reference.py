"""Reference values and forms that more than one test module reads."""

import numpy as np

from relaysec.model import Topology
from relaysec.sinr import SinrMethod

#: The reference layout (model.TOPOLOGY_1) shrunk by a factor of 3.
TOPOLOGY_2 = Topology(-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0, 2.7)


def expression_three_hop(g, h, f, method):
    """exact_sinrs or highsnr_sinrs written as expressions, the reference the
    in-place kernels match bit for bit, plus R1's phase-3 SINR, which no
    kernel computes: (r1_p1, r2, r1_p3, d)."""
    g, h, f = (np.asarray(x, dtype=float) for x in (g, h, f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ig = 1.0 / g
        if method is SinrMethod.EXACT:
            t = (1.0 + ig) / h
            return (g / (h + 1.0), 1.0 / (ig * (f + 2.0) + t * (f + 1.0)),
                    1.0 / (ig + (g + 1.0) * t + ((g + h + 1.0) / h) ** 2 * ((f + 1.0) * ig)),
                    1.0 / (3.0 * ig + 2.0 * t + (1.0 + 2.0 * ig + t) / f))
        r1_p1 = g / h
        return (r1_p1, 1.0 / (f * (ig + 1.0 / h)),
                1.0 / ((r1_p1 + 1.0) ** 2 * (f * ig) + 2.0 * r1_p1),
                1.0 / (3.0 * ig + 2.0 / h + 1.0 / f))
