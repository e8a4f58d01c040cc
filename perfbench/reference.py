"""Independent NumPy reference used to check every output of the benchmark.

Nothing here calls into ``ctprod``.  The tube map is rebuilt from the
paper's formula M = W^-1 C (I + Z), tensors are compared face-wise in the
transform domain, and small instances are also checked through the block
Toeplitz-plus-Hankel embedding, where the C-product is the plain matrix
product.  Every check returns a scaled residual: the max-abs error of a
defining identity divided by the max-abs norms of the factors in it, so a
value near 1e-16 is exact to rounding and a value above ``PASS_TOL`` is a
failed operation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

PASS_TOL = 1e-8
_TINY = 1e-300
# Relative cutoff of the reference pseudoinverses.  Inputs are built with
# nonzero singular values well above it and zero ones far below it.
RCOND = 1e-10

# Largest embedding, in rows, used for the block-matrix check.
EMBED_MAX_ROWS = 640


def tube_map(n3: int) -> np.ndarray:
    """M = W^-1 C (I + Z) with C the orthonormal DCT-II and Z the upshift."""
    k = np.arange(n3)[:, None]
    j = np.arange(n3)[None, :]
    C = np.sqrt(2.0 / n3) * np.cos(np.pi * k * (2 * j + 1) / (2 * n3))
    C[0] /= np.sqrt(2.0)
    CZ = C.copy()
    CZ[:, 1:] += C[:, :-1]  # column j of C (I + Z) is C[:, j] + C[:, j-1]
    return CZ / C[:, :1]


def embed(slices: np.ndarray) -> np.ndarray:
    """Block Toeplitz-plus-Hankel embedding of a (n3, n1, n2) stack.

    Block (i, j) is slice |i-j| plus slice i+j+1 (below n3), zero (at n3),
    or slice 2*n3-(i+j+1) (above n3).
    """
    n3, n1, n2 = slices.shape
    ext = np.concatenate([slices, np.zeros((1, n1, n2), slices.dtype)])
    i = np.arange(n3)[:, None]
    j = np.arange(n3)[None, :]
    h = i + j + 1
    hank = np.where(h < n3, h, np.where(h == n3, n3, 2 * n3 - h))
    blocks = ext[np.abs(i - j)] + ext[hank]  # (n3, n3, n1, n2)
    return blocks.transpose(0, 2, 1, 3).reshape(n3 * n1, n3 * n2)


class Domain:
    """Where identities are evaluated: transform faces or the embedding.

    Both representations turn the C-product into ``@`` and the tensor
    conjugate transpose into the matrix one, so one set of checks serves
    both.
    """

    def __init__(self, n3: int, embedded: bool = False):
        self.n3 = n3
        self.embedded = embedded

    @functools.cached_property
    def M(self) -> np.ndarray:
        """Built on first use, so a domain that is never evaluated costs nothing."""
        return tube_map(self.n3)

    def rep(self, slices) -> np.ndarray:
        s = np.asarray(slices)
        if self.embedded:
            return embed(s)
        flat = s.reshape(s.shape[0], -1)
        if np.iscomplexobj(flat):  # keep M real rather than cast it to complex
            return (self.M @ flat.real + 1j * (self.M @ flat.imag)).reshape(s.shape)
        return (self.M @ flat).reshape(s.shape)

    def storage(self, hats: np.ndarray) -> np.ndarray:
        """Inverse of the face-wise representation."""
        n3 = hats.shape[0]
        return np.linalg.solve(self.M, hats.reshape(n3, -1)).reshape(hats.shape)

    def eye(self, n: int) -> np.ndarray:
        if self.embedded:
            return np.eye(n * self.n3)
        return np.broadcast_to(np.eye(n), (self.n3, n, n))


def nrm(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def rel(err, *scales: float) -> float:
    return nrm(err) / max(math.prod(scales), _TINY)


def ct(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def off_pattern(slices: np.ndarray, upper: bool) -> float:
    """Max-abs entry below the diagonal (upper) or off it, relative to the tensor."""
    s = np.asarray(slices)
    bad = np.tril(s, -1) if upper else s - s * np.eye(s.shape[1], s.shape[2])
    return rel(bad, nrm(s))


# -- generalized inverses ------------------------------------------------


def forward(x: np.ndarray, xref: np.ndarray, m: np.ndarray) -> float:
    """Distance to the reference inverse, per matrix, relative to the whole
    reference and to the condition number of ``m``, the matrix the
    reference pseudoinverted: a correct result is as close as that
    condition number and the transform's rounding allow, and no closer."""
    s = np.linalg.svd(m, compute_uv=False)
    smax = s[..., :1]
    smin = np.where(s > RCOND * smax, s, np.inf).min(axis=-1)
    cond = smax[..., 0] / smin
    diff = np.abs(x - xref).max(axis=(-2, -1))
    return float((diff / np.maximum(nrm(xref) * cond, _TINY)).max())


def _forward(d: Domain, x: np.ndarray, m: np.ndarray, ref_of_pinv) -> list[float]:
    """``forward`` against the reference inverse ``ref_of_pinv(pinv(m))``,
    face-wise only: in the embedding the identities check the product
    structure, and a dense SVD of the whole block matrix would cost more
    than the rest of the check."""
    if d.embedded:
        return []
    return [forward(x, ref_of_pinv(np.linalg.pinv(m, rcond=RCOND)), m)]


def penrose(A, X, d: Domain) -> float:
    a, x = d.rep(A), d.rep(X)
    na, nx = nrm(a), nrm(x)
    ax, xa = a @ x, x @ a
    return max(
        *_forward(d, x, a, lambda p: p),
        rel(ax @ a - a, na, na, nx),
        rel(xa @ x - x, nx, nx, na),
        rel(ax - ct(ax), na, nx),
        rel(xa - ct(xa), na, nx),
    )


def drazin(A, X, k: int, d: Domain) -> float:
    a, x = d.rep(A), d.rep(X)
    na, nx = nrm(a), nrm(x)
    ak = np.linalg.matrix_power(a, k)
    a2k1 = np.linalg.matrix_power(a, 2 * k + 1)
    return max(
        *_forward(d, x, a2k1, lambda p: ak @ p @ ak),
        rel(ak @ a @ x - ak, nrm(ak), na, nx),
        rel(x @ a @ x - x, nx, nx, na),
        rel(a @ x - x @ a, na, nx),
    )


def along(A, G, X, d: Domain) -> float:
    a, g, x = d.rep(A), d.rep(G), d.rep(X)
    na, ng, nx = nrm(a), nrm(g), nrm(x)
    gp = np.linalg.pinv(g, rcond=RCOND)
    gag = g @ a @ g
    return max(
        *_forward(d, x, gag, lambda p: g @ p @ g),
        rel(x @ a @ g - g, nx, na, ng),
        rel(g @ a @ x - g, ng, na, nx),
        rel(g @ gp @ x - x, nx),
        rel(x @ gp @ g - x, nx),
    )


# -- products ------------------------------------------------------------


def product(A, B, C, d: Domain) -> float:
    a, b = d.rep(A), d.rep(B)
    return rel(d.rep(C) - a @ b, nrm(a), nrm(b))


def conj_transpose(A, X, d: Domain) -> float:
    a = d.rep(A)
    return rel(d.rep(X) - ct(a), nrm(a))


# -- decompositions -----------------------------------------------------


def _unitary(U, d: Domain) -> float:
    u = d.rep(U)
    return rel(ct(u) @ u - d.eye(U.shape[1]))


def factors(kind: str, A, f: dict, r_expected: int, d: Domain) -> float:
    """Check the factor contract of one decomposition and its reconstruction.

    ``f`` maps factor names to storage stacks; ``f["recon"]``, when
    present, is the program's own reconstruction of A from them.
    """
    a = d.rep(A)
    na = nrm(a)
    errs = [rel(d.rep(f["recon"]) - a, na)] if "recon" in f else []

    def prod(*names):
        """Product of the named factors; a leading ^ takes the conjugate transpose."""
        mats = [ct(d.rep(f[nm[1:]])) if nm.startswith("^") else d.rep(f[nm]) for nm in names]
        out = mats[0]
        for m in mats[1:]:
            out = out @ m
        return out, float(np.prod([nrm(m) for m in mats]))

    def shape_ok(name, rows, cols):
        return f[name].shape[1:] == (rows, cols)

    n = A.shape[1]
    if kind == "svd":
        p, s = prod("U", "S", "^V")
        errs += [_unitary(f["U"], d), _unitary(f["V"], d), off_pattern(f["S"], upper=False)]
    elif kind == "qr":
        p, s = prod("Q", "R")
        errs += [_unitary(f["Q"], d), off_pattern(f["R"], upper=True)]
    elif kind == "schur":
        p, s = prod("^Q", "T", "Q")
        errs += [_unitary(f["Q"], d), off_pattern(f["T"], upper=True)]
    elif kind == "fullrank":
        p, s = prod("M", "N")
        if f["r"] != r_expected or not (shape_ok("M", n, f["r"]) and shape_ok("N", f["r"], n)):
            return np.inf
    elif kind == "qdr":
        p, s = prod("Q", "D", "R")
        errs.append(off_pattern(f["D"], upper=False))
        if f["r"] != r_expected or not shape_ok("D", f["r"], f["r"]):
            return np.inf
    elif kind == "hs":
        r = f["r"]
        if r != r_expected:
            return np.inf
        sr, kk, ll = f["Sr"], f["K"], f["L"]
        # The middle factor [[Sr K, Sr L], [0, 0]] is assembled face-wise,
        # where its blocks are plain matrix products, then mapped to storage.
        faces = Domain(d.n3)
        mid = np.zeros((A.shape[0], n, n), complex)
        mid[:, :r, :r] = faces.rep(sr) @ faces.rep(kk)
        mid[:, :r, r:] = faces.rep(sr) @ faces.rep(ll)
        f = dict(f, mid=faces.storage(mid))
        p, s = prod("U", "mid", "^U")
        kr, lr = d.rep(kk), d.rep(ll)
        errs += [
            _unitary(f["U"], d),
            off_pattern(sr, upper=False),
            rel(kr @ ct(kr) + lr @ ct(lr) - d.eye(r)),
        ]
    else:
        raise ValueError(kind)
    errs.append(rel(p - a, s))
    return max(errs)


def core_nilpotent(A, Cc, Nn, k: int, d: Domain) -> float:
    a, c, nn = d.rep(A), d.rep(Cc), d.rep(Nn)
    na, nc, nnn = nrm(a), nrm(c), nrm(nn)
    return max(
        rel(c + nn - a, na),
        rel(c @ nn, nc, nnn),
        rel(nn @ c, nc, nnn),
        rel(np.linalg.matrix_power(nn, k), nnn**k),
    )


# -- markov ---------------------------------------------------------------


def stationary_projector(hats: np.ndarray) -> np.ndarray:
    """lim B^m = pi 1^T for each column-stochastic regular face B."""
    n3, n, _ = hats.shape
    out = np.empty_like(hats, dtype=complex)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    for i, b in enumerate(hats):
        lhs = np.vstack([b - np.eye(n), np.ones((1, n))])
        pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        out[i] = np.outer(pi, np.ones(n))
    return out


def ergodic(P, E, d: Domain) -> float:
    p, e = d.rep(P), d.rep(E)
    errs = [rel(e @ e - e, nrm(e), nrm(e)), rel(p @ e - e, nrm(p), nrm(e)), rel(e @ p - e, nrm(p), nrm(e))]
    if not d.embedded:
        errs.append(rel(e - stationary_projector(p), 1.0))
    return max(errs)


def final_estimate_error(P, kind: str, steps: int, alpha: float, d: Domain) -> float:
    """Storage-domain max-abs error of the last estimate against the limit."""
    p = d.rep(P)
    n = p.shape[-1]
    eye = np.broadcast_to(np.eye(n), p.shape)
    base = alpha * eye + (1.0 - alpha) * p if kind == "alpha" else p
    if kind == "cesaro":
        acc = np.zeros_like(p, dtype=complex)
        pw = np.array(eye, dtype=complex)
        for _ in range(steps):
            acc += pw
            pw = pw @ base
        est = acc / steps
    else:
        est = np.linalg.matrix_power(base, steps)
    return nrm(d.storage(est - stationary_projector(p)))


def index(A, d: Domain) -> int:
    """Largest per-face index: smallest k with rank(a^k) == rank(a^(k+1))."""
    best = 0
    for a in d.rep(A):
        n = a.shape[0]
        tol = n * 1e-10 * max(nrm(a), 1.0)
        prev, pw = n, np.eye(n)
        for k in range(n + 1):
            pw = pw @ a
            r = np.linalg.matrix_rank(pw, tol=tol)
            if r == prev:
                best = max(best, k)
                break
            prev = r
    return best


# -- text files ------------------------------------------------------------


def parse_ct(data: bytes) -> np.ndarray:
    """Minimal reader of the ``ct-tensor 1`` text format, to (n3, n1, n2)."""
    lines = [ln.split("#", 1)[0].strip() for ln in data.decode("ascii").splitlines()]
    lines = [ln for ln in lines if ln]
    if lines[0] != "ct-tensor 1" or not lines[1].startswith("dims "):
        raise ValueError("not a ct-tensor file")
    n1, n2, n3 = (int(t) for t in lines[1].split()[1:])
    field = lines[2].split()[1]
    rows = [ln for ln in lines[3:] if not ln.startswith("slice ")]
    toks = " ".join(rows).split()
    if field == "complex":
        vals = [complex(*map(float, t[1:-1].split(","))) for t in toks]
    else:
        vals = [float(t) for t in toks]
    return np.array(vals, dtype=complex).reshape(n3, n1, n2)


def write_ct(slices: np.ndarray) -> bytes:
    """Writer for real stacks, used to make the benchmark's input files."""
    n3, n1, n2 = slices.shape
    out = ["ct-tensor 1", f"dims {n1} {n2} {n3}", "field real"]
    for k in range(n3):
        out.append(f"slice {k}")
        out.extend(" ".join(repr(float(v)) for v in row) for row in slices[k])
    return ("\n".join(out) + "\n").encode("ascii")
