"""Section 5.2.1 — exhaustive decomposition coverage.

Paper: "an exhaustive search shows that every 2x2 matrix T with
det T = 1 and whose coefficients are all lower than or equal to 5 in
absolute value is equal to the product of 2, 3 or 4 elementary
matrices" (identity and single factors aside).  We re-run that search
with the analytic decomposition rules and tabulate the factor-count
histogram; the similarity remark is exercised by checking the
sufficient condition coincides with 3-factor decomposability.
"""

from repro.decomp import (
    decompose_2x2,
    decompose_three,
    enumerate_det1,
    similar_to_two_factors_sufficient,
    verify_factors,
)

from _harness import print_table


def coverage(bound=5):
    hist = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    failures = 0
    total = 0
    for t in enumerate_det1(bound):
        total += 1
        factors = decompose_2x2(t)
        if factors is None:
            failures += 1
            continue
        assert verify_factors(t, factors)
        hist[len(factors)] += 1
    return total, hist, failures


def test_sec52_exhaustive_coverage():
    total, hist, failures = coverage()
    print_table(
        "Section 5.2.1 — factor-count histogram, det=1, |coeff| <= 5",
        ["total", "0", "1", "2", "3", "4", "undecomposable<=4"],
        [[total, hist[0], hist[1], hist[2], hist[3], hist[4], failures]],
    )
    assert failures == 0, "the paper's exhaustive claim must hold"
    assert hist[4] > 0, "some matrices genuinely need four factors"
    assert total == 308  # |SL2(Z) ∩ [-5,5]^4| — verified count


def test_sec52_similarity_matches_three_factor_condition():
    """The sufficient similarity condition is the same divisibility as
    the 3-factor decomposition: they succeed on the same inputs."""

    def compare(bound=4):
        agree = 0
        total = 0
        for t in enumerate_det1(bound):
            a, b = t[0, 0], t[0, 1]
            c, d = t[1, 0], t[1, 1]
            if t.is_identity():
                continue
            total += 1
            sim = similar_to_two_factors_sufficient(t)
            three = decompose_three(t)
            cond = (c != 0 and (a - 1) % c == 0) or (
                b != 0 and (d - 1) % b == 0
            )
            if (sim is not None) == cond:
                agree += 1
        return agree, total

    agree, total = compare()
    assert agree == total
