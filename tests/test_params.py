import pytest

from ledasig import toy_params
from ledasig.params import SysParams, _is_prime

# toy29w's fields, which also meet the strict rules
TOY29W = dict(n0=29, r0=13, p=31, z=2, m_S=3, w=2, w_g=5, m_g=1)


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


@pytest.mark.parametrize("field, value, bound", [
    ("z", 13, "r0 - 1 = 12"), ("w", 404, "r = 403"), ("m_g", 497, "k = 496"),
    ("m_S", 31, "n0 - 1 = 28"), ("m_S", 29, "n0 - 1 = 28")],
    ids=["z", "w", "m_g", "m_S", "m_S_n0"])
@pytest.mark.parametrize("strict", [False, True])
def test_counts_above_their_range_are_rejected(field, value, bound, strict):
    # C(r, w) and C(k, m_g) must exist, z must stay below r0, and S's m_S
    # block shifts must be distinct among n0 and not all of them
    with pytest.raises(ValueError, match=f"^{field} must be at most {bound}"):
        SysParams(name="x", category=1, strict=strict,
                  **{**TOY29W, field: value})
