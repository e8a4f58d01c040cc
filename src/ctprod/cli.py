"""Command-line interface.

Every subcommand reads tensors from text files (see :mod:`ctprod.io`),
writes tensor results in the same format (stdout by default, a file with
``-o``), and keeps diagnostics such as indices, ranks, and per-step errors
on stderr as ``#``-prefixed lines.  Exit codes: 0 on success, 1 for domain
errors (singular slices, rank mismatches, nonexistent inverses, ...), 2 for
usage errors and unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from .decompositions import c_full_rank, c_hs, c_qdr, c_qr, c_schur, c_svd
from .errors import CtError, DimsMismatch, InvalidAlpha, ParseError
from .geninv import (
    AlongMethod,
    DrazinMethod,
    MpMethod,
    check_along,
    check_drazin,
    check_penrose,
    core_nilpotent_parts,
    drazin_inverse,
    group_inverse,
    inverse_along,
    mp_inverse,
    tensor_index,
)
from .io import format_float, parse_tensor_file, write_tensor_file
from .markov import EstimatorKind, StochasticMode, ergodic_projector, limit_estimate, validate_transition
from .product import cprod
from .tensor import Tensor3
from .transform import build_context

__all__ = ["main"]


def _read(path: str) -> Tensor3:
    return parse_tensor_file(Path(path).read_bytes())


def _emit(A: Tensor3, out: str | None) -> None:
    data = write_tensor_file(A)
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def _tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    """A --steps value: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tolerance, default=None, help="rank tolerance override")


def _add_common(p: argparse.ArgumentParser, *, output: bool = True) -> None:
    _add_tol(p)
    if output:
        p.add_argument("-o", "--output", default=None, help="write the result here instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="ctprod", description="Tensor algebra under the C-product."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cprod", help="multiply two tensors")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse")
    p.add_argument("a")
    p.add_argument("--method", choices=[m.value for m in MpMethod], default=MpMethod.SLICEWISE.value)
    _add_common(p)

    p = sub.add_parser("drazin", help="Drazin inverse")
    p.add_argument("a")
    p.add_argument("--method", choices=[m.value for m in DrazinMethod], default=DrazinMethod.POWER.value)
    _add_common(p)

    p = sub.add_parser("group", help="group inverse (requires index <= 1)")
    p.add_argument("a")
    _add_common(p)

    p = sub.add_parser("along", help="inverse of the first tensor along the second")
    p.add_argument("a")
    p.add_argument("g")
    p.add_argument("--method", choices=[m.value for m in AlongMethod], default=AlongMethod.SVD_OF_G.value)
    _add_common(p)

    p = sub.add_parser("index", help="print the tensor index")
    p.add_argument("a")
    _add_common(p, output=False)

    p = sub.add_parser("decomp", help="factor a tensor")
    p.add_argument("a")
    p.add_argument(
        "--kind",
        required=True,
        choices=["svd", "qr", "schur", "fullrank", "qdr", "hs", "corenil"],
    )
    _add_tol(p)
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="prefix: each factor goes to PREFIX.<name>.ct instead of stdout",
    )

    p = sub.add_parser("markov", help="ergodic projector of a transition tensor")
    p.add_argument("p")
    p.add_argument("--mode", choices=[m.value for m in StochasticMode], default=StochasticMode.TRANSFORM.value)
    p.add_argument(
        "--estimator",
        choices=[k.value for k in EstimatorKind],
        default=None,
        help="also run this estimator, reporting per-step errors on stderr",
    )
    p.add_argument("--steps", type=_positive_int, default=1000)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_common(p)

    p = sub.add_parser("check", help="report residuals of an inverse relation")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--relation", choices=["mp", "drazin", "along"], required=True)
    _add_tol(p)

    return parser


def _factors(kind: str, A: Tensor3, ctx, tol):
    if kind == "svd":
        d = c_svd(A, ctx)
        return [("U", d.U), ("S", d.S), ("V", d.V)], []
    if kind == "qr":
        d = c_qr(A, ctx)
        return [("Q", d.Q), ("R", d.R)], []
    if kind == "schur":
        d = c_schur(A, ctx)
        return [("Q", d.Q), ("T", d.T)], []
    if kind == "fullrank":
        d = c_full_rank(A, ctx, tol)
        return [("M", d.Mfac), ("N", d.Nfac)], [f"# rank {d.r}"]
    if kind == "qdr":
        d = c_qdr(A, ctx, tol)
        return [("Q", d.Q), ("D", d.D), ("R", d.R)], [f"# rank {d.r}"]
    if kind == "hs":
        d = c_hs(A, ctx, tol)
        return [("U", d.U), ("Sr", d.Sr), ("K", d.K), ("L", d.Lblk)], [f"# rank {d.r}"]
    d = core_nilpotent_parts(A, ctx, tol)
    return [("C", d.coreC), ("N", d.nilN)], [f"# index {d.k}"]


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "cprod":
        A = _read(args.a)
        B = _read(args.b)
        _emit(cprod(A, B, build_context(A.n3)), args.output)
        return 0

    if cmd == "pinv":
        A = _read(args.a)
        res = mp_inverse(A, build_context(A.n3), args.method, args.tol)
        _emit(res.X, args.output)
        return 0

    if cmd == "drazin":
        A = _read(args.a)
        res = drazin_inverse(A, build_context(A.n3), args.method, args.tol)
        print(f"# index {res.k}", file=sys.stderr)
        _emit(res.X, args.output)
        return 0

    if cmd == "group":
        A = _read(args.a)
        res = group_inverse(A, build_context(A.n3), args.tol)
        print(f"# index {res.k}", file=sys.stderr)
        _emit(res.X, args.output)
        return 0

    if cmd == "along":
        A = _read(args.a)
        G = _read(args.g)
        res = inverse_along(A, G, build_context(A.n3), args.method, args.tol)
        _emit(res.X, args.output)
        return 0

    if cmd == "index":
        A = _read(args.a)
        print(tensor_index(A, build_context(A.n3), args.tol))
        return 0

    if cmd == "decomp":
        A = _read(args.a)
        factors, notes = _factors(args.kind, A, build_context(A.n3), args.tol)
        for note in notes:
            print(note, file=sys.stderr)
        if args.output:
            for name, T in factors:
                Path(f"{args.output}.{name}.ct").write_bytes(write_tensor_file(T))
        else:
            for name, T in factors:
                sys.stdout.write(f"# factor {name}\n")
                sys.stdout.write(write_tensor_file(T).decode("ascii"))
        return 0

    if cmd == "markov":
        P = _read(args.p)
        ctx = build_context(P.n3)
        tt = validate_transition(P, ctx, args.mode)
        if args.estimator:
            report = limit_estimate(tt, ctx, args.estimator, args.steps, args.alpha, args.tol)
            for m, err in report.estimates:
                print(f"# step {m} err {format_float(err)}", file=sys.stderr)
            E = report.E
        else:
            E = ergodic_projector(tt, ctx, args.tol)
        _emit(E, args.output)
        return 0

    # check
    expected = {"mp": 2, "drazin": 2, "along": 3}[args.relation]
    if len(args.files) != expected:
        names = {"mp": "A X", "drazin": "A X", "along": "A G X"}[args.relation]
        print(
            f"error: --relation {args.relation} takes {expected} files ({names}), "
            f"got {len(args.files)}",
            file=sys.stderr,
        )
        return 2
    tensors = [_read(f) for f in args.files]
    ctx = build_context(tensors[0].n3)
    if args.relation == "mp":
        residuals = check_penrose(tensors[0], tensors[1], ctx)
    elif args.relation == "drazin":
        k = tensor_index(tensors[0], ctx, args.tol)
        residuals = check_drazin(tensors[0], tensors[1], k, ctx)
    else:
        residuals = check_along(tensors[0], tensors[1], tensors[2], ctx)
    for label, value in residuals.items():
        print(f"{label} {format_float(value)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except (ParseError, DimsMismatch, InvalidAlpha) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
