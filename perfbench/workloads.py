"""The two workloads: inputs made from the seed, the op cycle, the checks.

A workload is a fixed cycle of operations over a pool of inputs drawn from
``numpy.random.default_rng(seed)``.  Each operation is timed alone; its
check runs afterwards, outside the timed region, against the independent
reference in :mod:`reference`.  Program functions are looked up on the
``ctprod`` package at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ctprod
import ctprod.cli
import reference as ref

# Absolute rank cutoff passed to every timed route that decides a per-slice
# rank or index.  The inputs have nonzero singular values of order one and
# exact zeros, which come back from storage at the roundoff level.  The
# program's default relative cutoff, max(m, n) * eps * smax per slice, lies
# within a factor of about three of that roundoff and misjudges ranks now
# and then (drazin:hs then returns inverses of norm ~1e27, mp:qdr raises
# RankMismatch); this tolerance separates the two by seven orders.  The
# traced run still runs the same routes once with the default cutoff and
# reports their failures (``Workload.default_cutoff``).
RANK_TOL = 1e-8
MARKOV_STEPS = 250


@dataclass
class Op:
    """One operation of a cycle.

    ``run`` makes the call and returns what the check needs; ``check``
    returns the scaled residual of that output; ``digest`` fingerprints
    the output so an identical repeat reuses the first verdict.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], float]
    digest: Callable[[object], bytes]


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    shapes: str
    # Builds the cycle's inverse routes with the program's default rank
    # cutoff, run untimed and outside the workload's counts.  Built only
    # when asked for, so that the timed runs hold no extra objects.
    default_cutoff: Callable[[], list[Op]] | None = None


def _hash(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.digest()


def _worst(check, doms) -> float:
    return max(check(d) for d in doms)


class _Domains:
    """Reference domains, built once per n3.

    Only the first instance of each shape is also checked through the
    embedding (when it is small enough); the rest are checked face-wise.
    """

    def __init__(self):
        self._cache = {}
        self._seen = set()

    def __call__(self, n3: int, n: int):
        embed = (n3, n) not in self._seen and n * n3 <= ref.EMBED_MAX_ROWS
        self._seen.add((n3, n))
        if (n3, embed) not in self._cache:
            self._cache[(n3, embed)] = [ref.Domain(n3)] + ([ref.Domain(n3, embedded=True)] if embed else [])
        return self._cache[(n3, embed)]


# -- input generation -----------------------------------------------------


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _from_faces(faces, face_dom: ref.Domain) -> np.ndarray:
    return face_dom.storage(np.asarray(faces, dtype=complex))


def equal_rank(rng, n, r, face_dom) -> np.ndarray:
    """Every transform face is U diag(s) V^H with s in [1, 2] and rank r."""
    faces = []
    for _ in range(face_dom.n3):
        s = np.zeros((n, n))
        s[:r, :r] = np.diag(rng.uniform(1.0, 2.0, r))
        faces.append(_unitary(rng, n) @ s @ _unitary(rng, n).conj().T)
    return _from_faces(faces, face_dom)


def index_two(rng, n, face_dom) -> np.ndarray:
    """Every face is Q blkdiag(T, N) Q^H: Q unitary, T upper triangular with
    eigenvalues of modulus in [1, 2], N the 2 x 2 upshift; index exactly 2."""
    faces = []
    for _ in range(face_dom.n3):
        m = n - 2
        t = np.triu(0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))), 1)
        t += np.diag(rng.uniform(1.0, 2.0, m) * np.exp(2j * np.pi * rng.uniform(size=m)))
        blk = np.zeros((n, n), complex)
        blk[:m, :m] = t
        blk[m, m + 1] = 1.0
        q = _unitary(rng, n)
        faces.append(q @ blk @ q.conj().T)
    return _from_faces(faces, face_dom)


def stochastic_chain(rng, n, n3) -> np.ndarray:
    """Column-stochastic in every transform face with entries in [0, 1].

    The all-ones tube is the image of e_0 under the tube map, so a chain
    is transform-stochastic with valid entries only when its first storage
    slice is column stochastic and the rest vanish; every face is then B.
    """
    b = rng.uniform(0.2, 1.0, (n, n))
    out = np.zeros((n3, n, n))
    out[0] = b / b.sum(axis=0, keepdims=True)
    return out


# -- library workloads ----------------------------------------------------


def _mp_op(label, A, ctx, doms, method=None, tol=None):
    T = ctprod.Tensor3(A)
    args = () if method is None else (method, tol)
    return Op(
        label,
        lambda: ctprod.mp_inverse(T, ctx, *args).X.slices,
        lambda X: _worst(lambda d: ref.penrose(A, X, d), doms),
        _hash,
    )


def library(seed: int, ctxs: dict, workdir: Path) -> Workload:
    """Direct library calls, three groups in one cycle of 158 ops.

    * Inverse routes, complex n3 = 32: six 8x8 instances and one 16x16, each
      with equal-rank (rank 3n/4), index-2 and (A, G) inputs, through all
      7 MP, 4 Drazin and 3 along routes, 6 decompositions with
      ``reconstruct`` and ``core_nilpotent_parts`` (147 ops); cprod round
      trips and per-slice kernel loops dominate.
    * One 20x20x32 transform-stochastic chain: ``validate_transition``,
      ``ergodic_projector`` and ``limit_estimate`` cesaro / alpha / power
      (5 ops); the per-step loop dominates.
    * Long tubes, complex 8x8x1024 and real 4x4x2048: ``cprod``,
      ``conj_transpose`` and default ``mp_inverse`` (6 ops); dense O(n3^2)
      transforms dominate.

    158 ops put the p99 tail rank of whole cycles (1.58 per cycle from the
    top) inside an op's cluster of latencies, not between two clusters.
    """
    rng = np.random.default_rng(seed)
    domains = _Domains()
    cycle, inputs = [], []
    n3 = 32
    for n, count in ((8, 6), (16, 1)):
        r = 3 * n // 4
        for _ in range(count):
            doms = domains(n3, n)
            face = doms[0]
            E = equal_rank(rng, n, r, face)
            D = index_two(rng, n, face)
            Aa = rng.standard_normal((n3, n, n)) + 1j * rng.standard_normal((n3, n, n))
            G = equal_rank(rng, n, r, face)
            inputs.append((f"{n}x{n}x{n3}", E, D, Aa, G, r, ctxs[n3], doms))
            cycle += _inverse_ops(*inputs[-1], RANK_TOL)
    cycle += _markov_ops(stochastic_chain(rng, 20, n3), ctxs[n3], domains(n3, 20))
    for n3, n, cplx in ((1024, 8, True), (2048, 4, False)):
        A, B = (rng.standard_normal((n3, n, n)) + (1j * rng.standard_normal((n3, n, n)) if cplx else 0) for _ in "AB")
        kind = "complex" if cplx else "real"
        cycle += _tube_ops(f"{n}x{n}x{n3}:{kind}", A, B, ctxs[n3], domains(n3, n))
    return Workload(
        "library",
        cycle,
        "complex 8x8x32 (6 instances) and 16x16x32 (1); one 20x20x32 chain; complex 8x8x1024 and real 4x4x2048",
        lambda: [op for args in inputs for op in _inverse_ops(*args, None)],
    )


def _inverse_ops(shape, E, D, Aa, G, r, ctx, doms, tol):
    ops = []
    tE, tD, tA, tG = (ctprod.Tensor3(x) for x in (E, D, Aa, G))
    for m in ("slicewise", "svd", "qr", "schur", "fullrank", "qdr", "hs"):
        ops.append(_mp_op(f"mp:{m}@{shape}", E, ctx, doms, m, tol))
    for m in ("power", "qdr", "corenil", "hs"):
        ops.append(
            Op(
                f"drazin:{m}@{shape}",
                lambda m=m: _drazin(tD, ctx, m, tol),
                lambda X: _worst(lambda d: ref.drazin(D, X, 2, d), doms),
                _hash,
            )
        )
    for m in ("svd", "gag", "fullrank"):
        ops.append(
            Op(
                f"along:{m}@{shape}",
                lambda m=m: ctprod.inverse_along(tA, tG, ctx, m, tol).X.slices,
                lambda X: _worst(lambda d: ref.along(Aa, G, X, d), doms),
                _hash,
            )
        )
    decomps = {
        "svd": lambda: ctprod.c_svd(tE, ctx),
        "qr": lambda: ctprod.c_qr(tE, ctx),
        "schur": lambda: ctprod.c_schur(tE, ctx),
        "fullrank": lambda: ctprod.c_full_rank(tE, ctx, tol),
        "qdr": lambda: ctprod.c_qdr(tE, ctx, tol),
        "hs": lambda: ctprod.c_hs(tE, ctx, tol),
    }
    for kind, call in decomps.items():
        ops.append(
            Op(
                f"decomp:{kind}@{shape}",
                lambda call=call: _factor_dict(call(), ctx),
                lambda f, kind=kind: _worst(lambda d: ref.factors(kind, E, f, r, d), doms),
                lambda f: _hash(*(v for k, v in sorted(f.items()) if k != "r")),
            )
        )
    ops.append(
        Op(
            f"decomp:corenil@{shape}",
            lambda: _corenil(tD, ctx, tol),
            lambda f: np.inf if f["k"] != 2 else _worst(lambda d: ref.core_nilpotent(D, f["C"], f["N"], 2, d), doms),
            lambda f: _hash(f["C"], f["N"]),
        )
    )
    return ops


def _drazin(T, ctx, method, tol):
    res = ctprod.drazin_inverse(T, ctx, method, tol)
    if res.k != 2:
        raise ValueError(f"index {res.k}, expected 2")
    return res.X.slices


def _corenil(T, ctx, tol):
    p = ctprod.core_nilpotent_parts(T, ctx, tol)
    return {"C": p.coreC.slices, "N": p.nilN.slices, "k": p.k}


_FACTOR_NAMES = {
    "CSvd": ("U", "S", "V"),
    "CQr": ("Q", "R"),
    "CSchur": ("Q", "T"),
    "CFullRank": ("Mfac", "Nfac"),
    "CQdr": ("Q", "D", "R"),
    "CHs": ("U", "Sr", "K", "Lblk"),
}


def _factor_dict(d, ctx) -> dict:
    recon = d.reconstruct(ctx)
    out = {"recon": recon.slices, "r": getattr(d, "r", None)}
    for name in _FACTOR_NAMES[type(d).__name__]:
        out[{"Mfac": "M", "Nfac": "N", "Lblk": "L"}.get(name, name)] = getattr(d, name).slices
    return out


def _markov_ops(P, ctx, doms):
    T = ctprod.Tensor3(P)
    ops = [
        Op(
            "markov:validate",
            lambda: ctprod.validate_transition(T, ctx),
            lambda tt: 0.0 if tt.P is T and tt.mode.value == "transform" else np.inf,
            lambda tt: _hash(tt.P.slices, tt.mode.value.encode()),
        ),
        Op(
            "markov:projector",
            lambda: ctprod.ergodic_projector(T, ctx).slices,
            lambda E: _worst(lambda d: ref.ergodic(P, E, d), doms),
            _hash,
        ),
    ]
    for kind in ("cesaro", "alpha", "power"):
        ops.append(
            Op(
                f"markov:limit_{kind}",
                lambda kind=kind: _limit(T, ctx, kind),
                lambda rep, kind=kind: _check_limit(P, rep, kind, doms),
                lambda rep: _hash(rep[0], np.array(rep[1])),
            )
        )
    return ops


def _limit(T, ctx, kind):
    rep = ctprod.limit_estimate(T, ctx, kind, steps=MARKOV_STEPS, alpha=0.5)
    return rep.E.slices, [e for _, e in rep.estimates], [m for m, _ in rep.estimates]


def _check_limit(P, rep, kind, doms) -> float:
    E, errs, steps = rep
    if steps != list(range(1, MARKOV_STEPS + 1)):
        return np.inf
    want = ref.final_estimate_error(P, kind, MARKOV_STEPS, 0.5, doms[0])
    return max(_worst(lambda d: ref.ergodic(P, E, d), doms), abs(errs[-1] - want))


def _tube_ops(shape, A, B, ctx, doms):
    tA, tB = ctprod.Tensor3(A), ctprod.Tensor3(B)
    return [
        Op(
            f"cprod@{shape}",
            lambda: ctprod.cprod(tA, tB, ctx).slices,
            lambda C: _worst(lambda d: ref.product(A, B, C, d), doms),
            _hash,
        ),
        Op(
            f"conj_transpose@{shape}",
            lambda: ctprod.conj_transpose(tA, ctx).slices,
            lambda X: _worst(lambda d: ref.conj_transpose(A, X, d), doms),
            _hash,
        ),
        _mp_op(f"mp:default@{shape}", A, ctx, doms),
    ]


# -- CLI workload ----------------------------------------------------------


def cli_real_io(seed: int, ctxs: dict, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    domains = _Domains()
    cycle = []
    # Five small rounds per large one put the median inside the small-file
    # cluster (fixed per-call cost) and the tail inside the large one.
    rounds = [(8, 8)] * 5 + [(32, 64)]
    for i, (n, n3) in enumerate(rounds):
        d = workdir / f"r{i}"
        d.mkdir(parents=True, exist_ok=True)
        A = rng.standard_normal((n3, n, n))
        B = rng.standard_normal((n3, n, n))
        P = stochastic_chain(rng, n, n3)
        for name, arr in (("a", A), ("b", B), ("p", P)):
            (d / f"{name}.ct").write_bytes(ref.write_ct(arr))
        cycle += _cli_ops(f"{n}x{n}x{n3}", d, A, B, P, domains(n3, n))
    return Workload("cli_real_io", cycle, "real .ct files: 5 rounds of 8x8x8 per round of 32x32x64")


def _cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctprod.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_ops(shape, d: Path, A, B, P, doms):
    f = {k: str(d / f"{k}.ct") for k in ("a", "b", "p", "x", "c", "e")}
    svd = str(d / "f")

    def read(name):
        return (d / name).read_bytes()

    def op(cmd, argv, outputs, check):
        return Op(
            f"cli:{cmd}@{shape}",
            lambda: _cli(argv),
            lambda stdout: check(stdout, *(ref.parse_ct(read(o)) for o in outputs)),
            lambda stdout: _hash(stdout.encode(), *(read(o) for o in outputs)),
        )

    def check_residuals(stdout, X):
        face = doms[0]
        a, x = face.rep(A), face.rep(X)
        want = {
            "axa": a @ x @ a - a,
            "xax": x @ a @ x - x,
            "ax_hermitian": a @ x - ref.ct(a @ x),
            "xa_hermitian": x @ a - ref.ct(x @ a),
        }
        got = dict(line.split() for line in stdout.splitlines())
        if set(got) != set(want):
            return np.inf
        scale = ref.nrm(A) ** 2 * ref.nrm(X)
        return max(abs(float(got[k]) - ref.nrm(face.storage(v))) / scale for k, v in want.items())

    return [
        op("pinv", ["pinv", f["a"], "-o", f["x"]], ["x.ct"], lambda s, X: _worst(lambda dm: ref.penrose(A, X, dm), doms)),
        op("cprod", ["cprod", f["a"], f["b"], "-o", f["c"]], ["c.ct"], lambda s, C: _worst(lambda dm: ref.product(A, B, C, dm), doms)),
        op(
            "decomp_svd",
            ["decomp", f["a"], "--kind", "svd", "-o", svd],
            ["f.U.ct", "f.S.ct", "f.V.ct"],
            lambda s, U, S, V: _worst(lambda dm: ref.factors("svd", A, {"U": U, "S": S, "V": V}, None, dm), doms),
        ),
        op("index", ["index", f["a"]], [], lambda s: 0.0 if int(s) == ref.index(A, doms[0]) else np.inf),
        op("check_mp", ["check", f["a"], f["x"], "--relation", "mp"], ["x.ct"], check_residuals),
        op("markov", ["markov", f["p"], "-o", f["e"]], ["e.ct"], lambda s, E: _worst(lambda dm: ref.ergodic(P, E, dm), doms)),
    ]


BUILDERS = {"cli_real_io": cli_real_io, "library": library}
