"""Exact fixtures from the paper: Figure 1 data and reference tables.

Everything here is transcribed from NASA TM-88224.  The contingency counts
(Figure 1) are exact; Table 1's reference values carry the paper's own
2-digit rounding of the first-order probabilities (it computes
``p^AB_11 = .38 × .13`` where full precision gives ``.376 × .126``), so our
full-precision reproduction matches signs, rankings and orders of
magnitude rather than the second decimal.  The AC row for (3,1) is
internally inconsistent in the original: its printed 0.22 standard
deviations do not follow from its printed count and mean
(``(598 - 521) / 22.1 ≈ 3.5``).  It is transcribed as printed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.data.schema import Schema
from repro.synth.surveys import smoking_cancer_schema

#: Total individuals surveyed (paper: "a survey of 3428 individuals").
PAPER_N = 3428

#: Attribute names in the paper's A, B, C roles.
A, B, C = "SMOKING", "CANCER", "FAMILY_HISTORY"


def paper_schema() -> Schema:
    """The questionnaire schema (3 smoking values, 2 cancer, 2 history)."""
    return smoking_cancer_schema()


def paper_table() -> ContingencyTable:
    """Figure 1's exact counts as a contingency table.

    Axis order (SMOKING, CANCER, FAMILY_HISTORY); slice ``[:, :, 0]`` is
    Figure 1a (family history = yes), ``[:, :, 1]`` is Figure 1b.
    """
    counts = np.zeros((3, 2, 2), dtype=np.int64)
    counts[:, :, 0] = [[130, 410], [62, 580], [78, 520]]
    counts[:, :, 1] = [[110, 640], [31, 460], [22, 385]]
    return ContingencyTable(paper_schema(), counts)


#: Figure 2's marginal counts, for regression-testing the marginal code.
FIGURE2_MARGINALS = {
    (A,): [1290, 1133, 1005],
    (B,): [433, 2995],
    (C,): [1780, 1648],
    (A, B): [[240, 1050], [93, 1040], [100, 905]],
    (A, C): [[540, 750], [642, 491], [598, 407]],
    (B, C): [[270, 163], [1510, 1485]],
}


@dataclass(frozen=True)
class Table1Row:
    """One reference row of the paper's Table 1.

    ``ratio`` is the printed ``p(H1|D)/p(H2|D)``; the paper prints "<.1"
    for the most extreme rows, encoded here as ``None``.
    """

    subset: tuple[str, str]
    values: tuple[int, int]
    probability: float
    observed: int
    mean: float
    sd: float
    num_sd: float
    delta: float
    ratio: float | None


#: The paper's Table 1, transcribed row by row (2-digit-rounded inputs).
PAPER_TABLE1 = [
    Table1Row((A, B), (0, 0), 0.048, 240, 165.0, 12.5, 6.03, -11.57, None),
    Table1Row((A, B), (0, 1), 0.329, 1050, 1128.0, 27.5, -2.83, 1.75, 5.8),
    Table1Row((A, B), (1, 0), 0.042, 93, 144.0, 11.7, -4.34, -4.74, None),
    Table1Row((A, B), (1, 1), 0.289, 1040, 990.0, 26.5, 1.86, 3.83, 46.1),
    Table1Row((A, B), (2, 0), 0.037, 100, 127.0, 11.1, -2.43, 2.44, 11.5),
    Table1Row((A, B), (2, 1), 0.256, 905, 877.6, 25.6, 1.07, 4.97, 144.0),
    Table1Row((B, C), (0, 0), 0.065, 270, 223.0, 14.4, 3.27, 0.59, 1.8),
    Table1Row((B, C), (0, 1), 0.061, 163, 209.0, 14.0, -3.29, -0.21, 0.8),
    Table1Row((B, C), (1, 0), 0.454, 1510, 1556.0, 29.2, -1.59, 4.77, 118.0),
    # The paper prints 1486 here, but its own Figure 2 sums to 1485
    # (640 + 460 + 385); we pin the internally consistent value.
    Table1Row((B, C), (1, 1), 0.420, 1485, 1440.0, 28.9, 1.56, 4.62, 101.0),
    Table1Row((A, C), (0, 0), 0.195, 540, 668.0, 23.2, -5.54, -10.54, None),
    Table1Row((A, C), (0, 1), 0.181, 750, 620.0, 22.5, 5.75, -9.95, None),
    Table1Row((A, C), (1, 0), 0.172, 642, 590.0, 22.1, 2.37, 2.87, 17.6),
    Table1Row((A, C), (1, 1), 0.159, 491, 545.0, 21.4, -2.52, 2.63, 13.9),
    Table1Row((A, C), (2, 0), 0.152, 598, 521.0, 22.1, 0.22, -0.64, 0.5),
    Table1Row((A, C), (2, 1), 0.141, 407, 483.0, 20.4, -3.75, -1.49, 0.2),
]

#: The Table-2 walkthrough constraint: cell (SMOKING=smoker, FH=no),
#: the paper's "N^AC with b = N^AC/N = .219" (750 / 3428).
TABLE2_CELL = ((A, C), (0, 1))
TABLE2_TARGET = 750 / 3428

#: Number of second-order cells the paper counts for the example.
PAPER_SECOND_ORDER_CELLS = 16

#: Paper's first-order probabilities as rounded in its Eq 49-56.
PAPER_FIRST_ORDER = {
    A: [0.38, 0.33, 0.29],
    B: [0.13, 0.87],
    C: [0.52, 0.48],
}
