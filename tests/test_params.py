import pytest

from ledasig import toy_params
from ledasig.params import _is_prime


def _sieve(n: int) -> list[bool]:
    prime = [True] * (n + 1)
    prime[0] = prime[1] = False
    for q in range(2, int(n ** 0.5) + 1):
        if prime[q]:
            prime[q * q::q] = [False] * len(prime[q * q::q])
    return prime


def test_is_prime_matches_sieve():
    # past the largest strict p (c6's 3449) and the squares around it
    limit = 3600
    assert [_is_prime(n) for n in range(limit + 1)] == _sieve(limit)
    assert not _is_prime(-7)


@pytest.mark.parametrize("field", ["n0", "r0", "p", "z", "m_S", "w", "w_g",
                                   "m_g"])
@pytest.mark.parametrize("value", [0, -1])
def test_counts_below_one_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
        toy_params("toy29", **{field: value})
