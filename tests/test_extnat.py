"""``power_upto``: an exact path for small powers, a logarithm path for the rest."""

import time

from galois_kit import extnat
from galois_kit.extnat import INF, power_upto

BASES = (1, 2, 3, 5, 10, 255, 256, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64, 3 ** 50)
EXPONENTS = (0, 1, 2, 3, 7, 8, 31, 32, 62, 63, 64, 65, 100)


def test_the_exact_path_answers_as_the_logarithm_path():
    """min(base ** exp, limit) on a grid of bases (1 among them, and some
    at or past 2^64, which take the logarithm path) and exponents on both
    sides of 64, at the limits around each power, k^m - 1, k^m and
    k^m + 1, and at INF."""
    for base in BASES:
        for exp in EXPONENTS:
            power = base ** exp
            for limit in (0, 1, power - 1, power, power + 1, 2 * power + 3, INF):
                want = min(power, limit)
                assert power_upto(base, exp, limit) == want, (base, exp, limit)
                assert extnat._power_upto_by_logs(base, exp, limit) == want, (base, exp, limit)


def test_a_huge_exponent_answers_without_building_the_power():
    # 3^(10^15) has about 1.6 * 10^15 bits: building it would not end
    start = time.perf_counter()
    assert power_upto(3, 10 ** 15, 10 ** 6) == 10 ** 6
    assert power_upto(1, 10 ** 15, 10 ** 6) == 1
    assert time.perf_counter() - start < 1
