"""Statistical-attack lifetime: how many signatures one keypair survives.

An observer who collects N signatures can estimate bit-pair coincidence
counts; pairs covered by one column of the sparse scrambler S stand out
once N is large enough. The bound below finds, for each N, the
probability that every column of S leaks at least one pair, and scans
for the largest N keeping that probability under 2^-lambda. Quasi-cyclic
keys leak faster (one recovered row per circulant block suffices), which
is the lifetime that matters here.
"""

import numpy as np

from ledasig.estimator import (_coincidence_separation,
                               _log2_graph_cover_prob,
                               _pair_coincidence_probs,
                               signature_bit_probability, stat_lifetime)
from ledasig.params import get_instance

params = get_instance("a3")
lam = params.security_level
print(f"instance a3, security target 2^-{lam}")
print(f"modelled per-bit signature density: "
      f"{signature_bit_probability(params):.4f}")

plain, qc = stat_lifetime(params, lam)
print(f"\nlifetime ignoring the block structure : {plain:,} signatures")
print(f"lifetime with the quasi-cyclic speedup: {qc:,} signatures\n")

print("  N collected   log2 P[full leak]   (quasi-cyclic model)")
rhos = _pair_coincidence_probs(params)
with np.errstate(divide="ignore"):
    for n_sigs in (500, 1000, 2000, qc, qc + 1, 4000, 8000):
        separation = _coincidence_separation(params, n_sigs, rhos)
        val = _log2_graph_cover_prob(params, separation, True)
        marker = "  <- largest N below the target" if n_sigs == qc else ""
        print(f"  {n_sigs:11,d}   {val:12.1f}{marker}")

print("\nAfter the bound, rotate the keypair: the scheme is one-time-ish "
      "only in the statistical sense, not per message.")
