"""System parameters for the nine proposed instances.

Each instance fixes a quasi-cyclic LDGM code (circulant size p, grid
n0 x r0), the row weight m_S of the scrambler S, the syndrome weight w,
the generator row weight w_g = 2w + 1 and the codeword multiplier m_g.
The sparse part of Q is a generalized permutation, so the paper's m_T is
1 for every instance and is not a field.  Derived quantities:
n = n0*p, r = r0*p, k = (n0-r0)*p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# the integer fields, each at least 1 in every mode
_COUNTS = ("n0", "r0", "p", "z", "m_S", "w", "w_g", "m_g")


def _is_prime(n: int) -> bool:
    """Trial division; every strict p, n0 and r0 is at most 3449."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _order_of_two(n: int) -> int:
    o, x = 1, 2 % n
    while x != 1:
        x = 2 * x % n
        o += 1
    return o


@dataclass(frozen=True)
class SysParams:
    """Parameter record of one scheme instance."""

    name: str
    category: int          # NIST security tier: 1, 3 or 5
    n0: int
    r0: int
    p: int
    z: int
    m_S: int
    w: int
    w_g: int
    m_g: int
    strict: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self.category not in (1, 3, 5):
            raise ValueError("category must be 1, 3 or 5")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n0 <= self.r0:
            raise ValueError("n0 must exceed r0")
        # C(r, w) and C(k, m_g) must exist, R = A.B^T stay below rank r0,
        # and E (m_S of n0 block shifts) be invertible, which m_S = n0 is not
        for name, bound, size in (("z", "r0 - 1", self.r0 - 1),
                                  ("w", "r", self.r), ("m_g", "k", self.k),
                                  ("m_S", "n0 - 1", self.n0 - 1)):
            if getattr(self, name) > size:
                raise ValueError(f"{name} must be at most {bound} = {size}, "
                                 f"got {getattr(self, name)}")
        if self.strict:
            if not (_is_prime(self.p) and _is_prime(self.r0)):
                raise ValueError("p and r0 must be prime")
            if not _is_prime(self.n0) or _order_of_two(self.n0) != self.n0 - 1:
                raise ValueError("n0 must be prime with 2 a primitive root")
            if self.w_g != 2 * self.w + 1:
                raise ValueError("w_g must equal 2*w + 1")
            if self.p * (2 * self.w + 1) >= self.r:
                raise ValueError("p must be below r/(2w+1)")
        if self.w_g - 1 > self.r0:
            raise ValueError("w_g - 1 block columns must fit in r0")
        if self.m_S % 2 == 0:
            raise ValueError("m_S must be odd")

    @property
    def k0(self) -> int:
        return self.n0 - self.r0

    @property
    def n(self) -> int:
        return self.n0 * self.p

    @property
    def k(self) -> int:
        return self.k0 * self.p

    @property
    def r(self) -> int:
        return self.r0 * self.p

    @property
    def w_c(self) -> int:
        return self.m_g * self.w_g

    @property
    def max_sig_weight(self) -> int:
        return (self.w + self.m_g * self.w_g) * self.m_S

    @property
    def security_level(self) -> int:
        """Target work factor exponent lambda for the category."""
        return {1: 128, 3: 192, 5: 256}[self.category]

    @property
    def seed_bytes(self) -> int:
        return {1: 32, 3: 48, 5: 64}[self.category]

    @property
    def block_bytes(self) -> int:
        """Serialized bytes per circulant block (64-bit word aligned)."""
        return ((self.p + 63) // 64) * 8


def _inst(name, cat, n0, r0, p, z, m_S, w, w_g, m_g):
    return SysParams(name=name, category=cat, n0=n0, r0=r0, p=p, z=z,
                     m_S=m_S, w=w, w_g=w_g, m_g=m_g)


INSTANCES: dict[str, SysParams] = {
    ins.name: ins for ins in (
        _inst("a3",     1, 227,  89,  127, 2,  9, 42,  85, 11),
        _inst("a6",     1, 139,  83,  383, 2,  9, 38,  77, 12),
        _inst("alpha3", 1, 149,  89,  509, 2, 23, 40,  81, 13),
        _inst("b3",     3, 293, 149,  251, 2, 13, 54, 109, 16),
        _inst("b6",     3, 179, 113, 1279, 2, 23, 46,  93, 17),
        _inst("beta3",  3, 173, 103, 1663, 2, 43, 48,  97, 22),
        _inst("c3",     5, 269, 149,  571, 2, 17, 72, 145, 20),
        _inst("c6",     5, 211, 131, 3449, 2, 43, 54, 109, 24),
        _inst("gamma3", 5, 293, 139, 3121, 2, 69, 66, 133, 32),
    )
}

_ALIASES = {"α3": "alpha3", "β3": "beta3", "γ3": "gamma3",
            "alpha_3": "alpha3", "beta_3": "beta3", "gamma_3": "gamma3"}

INSTANCE_IDS = {name: i for i, name in enumerate(
    ("a3", "a6", "alpha3", "b3", "b6", "beta3", "c3", "c6", "gamma3"))}


def get_instance(name: str) -> SysParams:
    """Look up an instance by name, normalizing greek spellings."""
    key = _ALIASES.get(name, name).lower()
    key = _ALIASES.get(key, key)
    if key not in INSTANCES:
        raise KeyError(f"unknown instance {name!r}; expected one of "
                       f"{', '.join(INSTANCES)}")
    return INSTANCES[key]


def toy_params(name="toy13", **overrides) -> SysParams:
    """Small non-standard parameter sets for tests and demos."""
    presets = {
        # n0 prime with 2 primitive root so that E is always invertible
        "toy13": dict(n0=13, r0=5, p=7, z=2, m_S=3, w=2, w_g=5, m_g=2),
        "toy29": dict(n0=29, r0=13, p=13, z=2, m_S=3, w=3, w_g=7, m_g=2),
        "toy29w": dict(n0=29, r0=13, p=31, z=2, m_S=3, w=2, w_g=5, m_g=1),
    }
    kw = presets[name] if name in presets else {}
    kw.update(overrides)
    return SysParams(name=name, category=1, strict=False, **kw)
