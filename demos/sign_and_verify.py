"""End-to-end walkthrough: keygen, sign, verify, tamper, reject.

Uses the category-1 instance a3 (n0=227, r0=89, p=127).
"""

import time

from ledasig import (get_instance, keypair_from_seed, sign, verify,
                     encode_public_key, encode_signature,
                     encode_private_key_at_rest, PackedVector, Signature)

params = get_instance("a3")
print(f"instance a3: n={params.n} k={params.k} r={params.r} "
      f"(circulants of size p={params.p})")
print(f"syndrome weight w={params.w}, codeword target weight "
      f"{params.m_g}*{params.w_g}={params.w_c}, scrambler weight "
      f"m_S={params.m_S}")

seed = bytes(range(params.seed_bytes))
t0 = time.perf_counter()
sk, pk = keypair_from_seed(seed, params)
print(f"\nkeypair from a {len(seed)}-byte seed in "
      f"{time.perf_counter() - t0:.2f}s")
print(f"  public key  : {len(encode_public_key(pk)):,} bytes on the wire")
print(f"  private key : {len(encode_private_key_at_rest(sk))} bytes at rest "
      "(seed + kernel matrix B)")

message = b"attack at dawn"
t0 = time.perf_counter()
sig = sign(sk, message)
print(f"\nsigned {message!r} in {(time.perf_counter() - t0) * 1000:.1f} ms")
print(f"  salt (64-bit) : {sig.theta_star}")
print(f"  weight        : {sig.sigma.weight} of {params.n} bits "
      f"(bound {params.max_sig_weight}, density "
      f"{sig.sigma.weight / params.n:.3f})")
print(f"  wire size     : {len(encode_signature(sig, params)):,} bytes")

verify(pk, message, sig)    # first call builds the packed key image
t0 = time.perf_counter()
ok = verify(pk, message, sig)
print(f"\nverify(honest)          -> {ok}  "
      f"[{(time.perf_counter() - t0) * 1000:.1f} ms warm]")

print(f"verify(tampered message)-> {verify(pk, b'attack at dusk', sig)}")

flipped = set(sig.sigma.support) ^ {12345}
bad_sig = Signature(
    PackedVector.from_support(params.n0, params.p, sorted(flipped)),
    sig.theta_star)
print(f"verify(flipped bit)     -> {verify(pk, message, bad_sig)}")

bad_salt = Signature(sig.sigma, sig.theta_star ^ 1)
print(f"verify(tampered salt)   -> {verify(pk, message, bad_salt)}")
