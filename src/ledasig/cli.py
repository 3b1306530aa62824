"""Command-line front end: keygen, sign, verify, estimate.

Exit codes: 0 success / signature accepted, 1 signature rejected,
2 bad arguments, 3 I/O failure, 4 malformed or inconsistent input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codec
from .drbg import fresh_xof
from .errors import FormatError, LedasigError
from .keygen import keypair_from_seed
from .params import INSTANCES, SysParams, get_instance
from .signer import sign
from .verifier import verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4


class _UsageError(Exception):
    pass


def _instance(name: str) -> SysParams:
    try:
        return get_instance(name)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _resolve_seed(args, params: SysParams) -> bytes:
    if getattr(args, "seed_hex", None):
        seed = bytes.fromhex(args.seed_hex)
    elif getattr(args, "seed_file", None):
        seed = codec.read_file(args.seed_file)
    elif os.environ.get("LEDASIG_SEED"):
        seed = bytes.fromhex(os.environ["LEDASIG_SEED"])
    else:
        raise _UsageError(
            "no seed: pass --seed-hex/--seed-file or set LEDASIG_SEED")
    if len(seed) != params.seed_bytes:
        raise _UsageError(
            f"seed must be {params.seed_bytes} bytes for {params.name}")
    return seed


def cmd_keygen(args) -> int:
    params = _instance(args.instance)
    seed = _resolve_seed(args, params)
    sk, pk = keypair_from_seed(seed, params)
    pk_blob = codec.encode_public_key(pk)
    sk_blob = codec.encode_private_key_at_rest(sk)
    codec.write_file(args.out_prefix + ".pk", pk_blob)
    codec.write_file(args.out_prefix + ".sk", sk_blob)
    print(f"instance={params.name} pk={args.out_prefix}.pk "
          f"({len(pk_blob)} bytes) sk={args.out_prefix}.sk "
          f"({len(sk_blob)} bytes)")
    return EXIT_OK


def cmd_sign(args) -> int:
    sk = codec.decode_private_key(codec.read_file(args.sk))
    message = codec.read_file(args.message_file)
    sig = sign(sk, message, rng=fresh_xof())
    codec.write_file(args.out, codec.encode_signature(sig, sk.params))
    print(f"signed: salt={sig.theta_star} weight={sig.sigma.weight} "
          f"bytes={6 + codec.signature_bytes(sk.params)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    pk = codec.decode_public_key(codec.read_file(args.pk))
    message = codec.read_file(args.message_file)
    sig, sig_params = codec.decode_signature(codec.read_file(args.sig))
    if sig_params != pk.params:
        raise FormatError("signature and key belong to different instances")
    if verify(pk, message, sig):
        print("ACCEPT")
        return EXIT_OK
    print("REJECT")
    return EXIT_REJECT


_SPEC_REQUIRED = {"n0", "r0", "p", "z", "m_S", "w", "w_g", "m_g"}


def _params_from_spec(spec: str) -> SysParams:
    fields = {"category": 1}
    for item in spec.split(","):
        key, _, value = item.partition("=")
        if not value:
            raise _UsageError(f"--params items must be key=value, got {item!r}")
        fields[key.strip()] = int(value)
    unknown = fields.keys() - _SPEC_REQUIRED - {"category"}
    if unknown:
        raise _UsageError(f"--params unknown {sorted(unknown)}")
    missing = _SPEC_REQUIRED - fields.keys()
    if missing:
        raise _UsageError(f"--params missing {sorted(missing)}")
    return SysParams(name="custom", strict=False, **fields)


def cmd_estimate(args) -> int:
    # the estimator pulls in scipy, which the other commands never use
    from .estimator import full_report, render_table

    lam = args.security_exponent
    if args.all:
        targets = list(INSTANCES.values())
    elif args.params:
        targets = [_params_from_spec(args.params)]
    elif args.instance:
        targets = [_instance(args.instance)]
    else:
        raise _UsageError("pass --instance, --params or --all")
    reports = []
    for prm in targets:
        if prm.name == "custom":
            print(f"custom parameters: n={prm.n} k={prm.k} r={prm.r}")
        reports.append(full_report(prm, lam))
    if args.jsonl:
        for rep in reports:
            print(json.dumps(rep.to_dict(), sort_keys=True))
    else:
        print(render_table(reports))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledasig",
        description="Quasi-cyclic LDGM code-based signatures")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a keypair from a seed")
    kg.add_argument("--instance", required=True)
    kg.add_argument("--seed-hex")
    kg.add_argument("--seed-file")
    kg.add_argument("--out-prefix", required=True)
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--sk", required=True)
    sg.add_argument("--message-file", required=True)
    sg.add_argument("--out", required=True)
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--pk", required=True)
    vf.add_argument("--message-file", required=True)
    vf.add_argument("--sig", required=True)
    vf.set_defaults(func=cmd_verify)

    es = sub.add_parser("estimate", help="attack work factors and lifetime")
    es.add_argument("--instance")
    es.add_argument("--params", help="custom n0=..,r0=..,p=..,z=..,m_S=..,"
                                     "w=..,w_g=..,m_g=..")
    es.add_argument("--all", action="store_true")
    es.add_argument("--lambda", dest="security_exponent", type=float,
                    default=None)
    es.add_argument("--jsonl", action="store_true")
    es.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LedasigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
