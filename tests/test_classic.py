import pytest

from jacobsthal3 import (
    DomainError,
    KValue,
    Y,
    Z,
    jac3_classic,
    jac3_multi_index,
    jac3_term,
    modified_lucas_classic,
    modified_lucas_recurrence,
)
from jacobsthal3.sequences import jac3_recurrence


def test_Z_piecewise():
    assert Z(0) == 2
    assert Z(4) == -3
    assert Z(-1) == 1  # -1 = 2 (mod 3)


def test_Y_piecewise():
    assert Y(0) == 2
    assert Y(5) == -1
    assert Y(-3) == 2


def test_Z_and_Y_are_three_periodic():
    for n in range(-9, 31):
        assert Z(n) == Z(n + 3)
        assert Y(n) == Y(n + 3)


def test_seven_divides_closed_form_numerator():
    for n in range(61):
        assert (2 ** (n + 1) - Z(n)) % 7 == 0


def test_classic_jacobsthal_values():
    assert jac3_classic(0) == 0
    assert jac3_classic(5) == 9  # (64 - 1)/7
    assert jac3_classic(9) == 146  # (1024 - 2)/7
    assert [jac3_classic(n) for n in range(10)] == [0, 1, 1, 2, 5, 9, 18, 37, 73, 146]


def test_classic_jacobsthal_matches_generic_recurrence():
    k2 = KValue.fixed(2)
    for n in range(31):
        assert jac3_classic(n) == jac3_recurrence(k2, n) == jac3_term(k2, n)


def test_classic_requires_nonnegative_index():
    with pytest.raises(DomainError):
        jac3_classic(-1)
    with pytest.raises(DomainError):
        modified_lucas_classic(-2)


def test_modified_lucas_values():
    assert modified_lucas_classic(0) == 3
    assert modified_lucas_classic(3) == 10
    assert modified_lucas_classic(4) == 15
    assert [modified_lucas_classic(n) for n in range(5)] == [3, 1, 3, 10, 15]


def test_modified_lucas_closed_form_matches_recurrence():
    for n in range(31):
        assert modified_lucas_classic(n) == modified_lucas_recurrence(n)


def test_modified_lucas_recurrence_relation():
    K = [modified_lucas_classic(n) for n in range(33)]
    for n in range(30):
        assert K[n + 3] == K[n + 2] + K[n + 1] + 2 * K[n]


def test_multi_index_examples():
    assert jac3_multi_index(1, 6) == 18
    assert jac3_multi_index(2, 3) == 18  # 3*5 - (-3)*1 + 4*0
    assert jac3_multi_index(3, 0) == 0


def test_multi_index_matches_direct_evaluation():
    for r in range(1, 6):
        for n in range(11):
            expected = jac3_classic(r * n)
            assert jac3_multi_index(r, n) == expected
            assert expected == (2 ** (r * n + 1) - Z(r * n)) // 7


def test_multi_index_rejects_bad_stride():
    with pytest.raises(DomainError):
        jac3_multi_index(0, 3)
    with pytest.raises(DomainError):
        jac3_multi_index(-2, 3)
    with pytest.raises(DomainError):
        jac3_multi_index(2, -1)
