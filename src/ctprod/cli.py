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


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


def _method(default, flag: str = "--method") -> tuple[tuple[str, ...], dict]:
    """A choice among the values of ``default``'s enum."""
    return _arg(flag, choices=[m.value for m in type(default)], default=default.value)


_A = _arg("a")
_TOL = _arg("--tol", type=_tolerance, help="rank tolerance override")
_OUT = _arg("-o", "--output", help="write the result here instead of stdout")

# kind -> (factorization, {file name: field}, the note on stderr or None)
_FACTORS = {
    "svd": (lambda A, ctx, tol: c_svd(A, ctx), {"U": "U", "S": "S", "V": "V"}, None),
    "qr": (lambda A, ctx, tol: c_qr(A, ctx), {"Q": "Q", "R": "R"}, None),
    "schur": (lambda A, ctx, tol: c_schur(A, ctx), {"Q": "Q", "T": "T"}, None),
    "fullrank": (c_full_rank, {"M": "Mfac", "N": "Nfac"}, "# rank {0.r}"),
    "qdr": (c_qdr, {"Q": "Q", "D": "D", "R": "R"}, "# rank {0.r}"),
    "hs": (c_hs, {"U": "U", "Sr": "Sr", "K": "K", "L": "Lblk"}, "# rank {0.r}"),
    "corenil": (core_nilpotent_parts, {"C": "coreC", "N": "nilN"}, "# index {0.k}"),
}

# relation -> (its files, residuals(ctx, tol, *tensors))
_RELATIONS = {
    "mp": ("A X", lambda ctx, tol, A, X: check_penrose(A, X, ctx)),
    "drazin": ("A X", lambda ctx, tol, A, X: check_drazin(A, X, tensor_index(A, ctx, tol), ctx)),
    "along": ("A G X", lambda ctx, tol, A, G, X: check_along(A, G, X, ctx)),
}


def _indexed(res) -> Tensor3:
    print(f"# index {res.k}", file=sys.stderr)
    return res.X


def _decomp(args, ctx, A) -> None:
    factor, fields, note = _FACTORS[args.kind]
    d = factor(A, ctx, args.tol)
    if note:
        print(note.format(d), file=sys.stderr)
    for name, field in fields.items():
        data = write_tensor_file(getattr(d, field))
        if args.output:
            Path(f"{args.output}.{name}.ct").write_bytes(data)
        else:
            sys.stdout.write(f"# factor {name}\n" + data.decode("ascii"))


def _markov(args, ctx, P) -> Tensor3:
    tt = validate_transition(P, ctx, args.mode)
    if not args.estimator:
        return ergodic_projector(tt, ctx, args.tol)
    report = limit_estimate(tt, ctx, args.estimator, args.steps, args.alpha, args.tol)
    for m, err in report.estimates:
        print(f"# step {m} err {format_float(err)}", file=sys.stderr)
    return report.E


def _check(args, ctx, *tensors) -> None:
    for label, value in _RELATIONS[args.relation][1](ctx, args.tol, *tensors).items():
        print(f"{label} {format_float(value)}")


# name -> (help, its arguments in order, run).  The positional arguments name
# the operand files, and run(args, ctx, *operands) returns the tensor to emit,
# or None when it writes its own output.
_COMMANDS = {
    "cprod": ("multiply two tensors",
              [_A, _arg("b"), _TOL, _OUT],
              lambda args, ctx, A, B: cprod(A, B, ctx)),
    "pinv": ("Moore-Penrose inverse",
             [_A, _method(MpMethod.SLICEWISE), _TOL, _OUT],
             lambda args, ctx, A: mp_inverse(A, ctx, args.method, args.tol).X),
    "drazin": ("Drazin inverse",
               [_A, _method(DrazinMethod.POWER), _TOL, _OUT],
               lambda args, ctx, A: _indexed(drazin_inverse(A, ctx, args.method, args.tol))),
    "group": ("group inverse (requires index <= 1)",
              [_A, _TOL, _OUT],
              lambda args, ctx, A: _indexed(group_inverse(A, ctx, args.tol))),
    "along": ("inverse of the first tensor along the second",
              [_A, _arg("g"), _method(AlongMethod.SVD_OF_G), _TOL, _OUT],
              lambda args, ctx, A, G: inverse_along(A, G, ctx, args.method, args.tol).X),
    "index": ("print the tensor index",
              [_A, _TOL],
              lambda args, ctx, A: print(tensor_index(A, ctx, args.tol))),
    "decomp": ("factor a tensor",
               [_A, _arg("--kind", required=True, choices=list(_FACTORS)), _TOL,
                _arg("-o", "--output", help="prefix: each factor goes to PREFIX.<name>.ct instead of stdout")],
               _decomp),
    "markov": ("ergodic projector of a transition tensor",
               [_arg("p"),
                _method(StochasticMode.TRANSFORM, "--mode"),
                _arg("--estimator", choices=[k.value for k in EstimatorKind],
                     help="also run this estimator, reporting per-step errors on stderr"),
                _arg("--steps", type=_positive_int, default=1000),
                _arg("--alpha", type=float, default=0.5),
                _TOL, _OUT],
               _markov),
    "check": ("report residuals of an inverse relation",
              [_arg("files", nargs="+", metavar="FILE"),
               _arg("--relation", choices=list(_RELATIONS), required=True), _TOL],
              _check),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="ctprod", description="Tensor algebra under the C-product.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=run, operands=[flags[0] for flags, _ in arguments if not flags[0].startswith("-")])
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "check":
        names = _RELATIONS[args.relation][0]
        if len(args.files) != len(names.split()):
            print(f"error: --relation {args.relation} takes {len(names.split())} files ({names}), "
                  f"got {len(args.files)}", file=sys.stderr)
            return 2
    tensors = []
    for name in args.operands:
        paths = getattr(args, name)
        tensors += map(_read, paths if isinstance(paths, list) else [paths])
    result = args.run(args, build_context(tensors[0].n3), *tensors)
    if result is not None:
        _emit(result, args.output)
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
