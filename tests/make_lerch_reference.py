"""Write ``lerch_reference.json``: mpmath's ``lerchphi`` at 30 digits on the
grid of ``test_oracle`` (``LERCH_PHASES``, ``LERCH_OFFSETS``,
``LERCH_ORDERS``), the values that the direct Lerch route is held to.

Each value is ``[re, im]`` as decimal strings of 36 significant digits,
keyed by ``repr`` of the phase, then of the offset, then by the order.  The
test recomputes one phase and offset live, so a changed grid or a changed
``lerchphi`` shows.  Run ``python tests/make_lerch_reference.py`` from the
repository root with ``src`` on the path; it takes about half a minute.
"""

import json
from pathlib import Path

import mpmath

from test_oracle import LERCH_OFFSETS, LERCH_ORDERS, LERCH_PHASES

REFERENCE = Path(__file__).with_name("lerch_reference.json")
DPS = 30
DIGITS = 36


def lerchphi_column(alpha: float, offset: float) -> dict:
    """``lerchphi(e^{i alpha}, s, offset)`` at ``DPS`` digits over
    ``LERCH_ORDERS``, keyed by the order."""
    with mpmath.workdps(DPS):
        z = mpmath.expj(mpmath.mpf(alpha))
        return {s: mpmath.lerchphi(z, s, mpmath.mpf(offset)) for s in LERCH_ORDERS}


def main():
    values = {
        repr(alpha): {
            repr(offset): {
                str(s): [mpmath.nstr(part, DIGITS, strip_zeros=False)
                         for part in (value.real, value.imag)]
                for s, value in lerchphi_column(alpha, offset).items()
            }
            for offset in LERCH_OFFSETS
        }
        for alpha in LERCH_PHASES
    }
    with open(REFERENCE, "w") as fh:
        json.dump({"dps": DPS, "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
