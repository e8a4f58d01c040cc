"""Command-line interface: happy paths, exit codes, and determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctprod import (
    __version__,
    AlongMethod,
    DrazinMethod,
    EstimatorKind,
    MpMethod,
    StochasticMode,
    Tensor3,
    build_context,
    check_penrose,
    cprod,
    max_abs_diff,
    mp_inverse,
    parse_tensor_file,
    tensor_from_transform_slices,
    write_tensor_file,
)
from ctprod.cli import _build_parser, _positive_int, _tolerance, main

from helpers import count_transforms, index_two_tensor, random_tensor, stochastic_matrix


def write(tmp_path, name, tensor):
    path = tmp_path / name
    path.write_bytes(write_tensor_file(tensor))
    return str(path)


@pytest.fixture
def square(tmp_path):
    rng = np.random.default_rng(0)
    A = random_tensor(rng, 3, 3, 2)
    return A, write(tmp_path, "a.ct", A)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cprod(tmp_path, capsys):
    rng = np.random.default_rng(1)
    A = random_tensor(rng, 2, 3, 2)
    B = random_tensor(rng, 3, 4, 2)
    code, out, _ = run(capsys, "cprod", write(tmp_path, "a.ct", A), write(tmp_path, "b.ct", B))
    assert code == 0
    got = parse_tensor_file(out)
    assert max_abs_diff(got, cprod(A, B, build_context(2))) == 0.0


def test_pinv_writes_file_and_stdout_identically(square, tmp_path, capsys):
    A, path = square
    out_file = tmp_path / "x.ct"
    code, out, _ = run(capsys, "pinv", path, "-o", str(out_file))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "pinv", path)
    assert code == 0
    assert out_file.read_bytes().decode() == out
    X = parse_tensor_file(out)
    assert max(check_penrose(A, X, build_context(2)).values()) < 1e-10


def test_pinv_transforms_once_each_way(square, capsys, monkeypatch):
    """pinv reads no residuals, so it transforms A forward and X back once."""
    A, path = square
    counts = count_transforms(monkeypatch)
    code, out, _ = run(capsys, "pinv", path)
    assert code == 0 and (counts["fwd"], counts["inv"]) == (1, 1)
    assert out.encode() == write_tensor_file(mp_inverse(A, build_context(2)).X)


@pytest.mark.parametrize("method", ["slicewise", "svd", "qr", "schur", "fullrank", "qdr", "hs"])
def test_pinv_methods(square, capsys, method):
    _, path = square
    code, out, _ = run(capsys, "pinv", path, "--method", method)
    assert code == 0 and out.startswith("ct-tensor 1")


def test_drazin_reports_index(square, capsys):
    _, path = square
    code, out, err = run(capsys, "drazin", path)
    assert code == 0
    assert "# index 0" in err
    assert out.startswith("ct-tensor 1")


def test_group_rejects_high_index(tmp_path, capsys):
    rng = np.random.default_rng(2)
    ctx = build_context(2)
    A = index_two_tensor(rng, 4, ctx)
    code, _, err = run(capsys, "group", write(tmp_path, "a.ct", A))
    assert code == 1
    assert "error:" in err


def test_along(tmp_path, capsys):
    rng = np.random.default_rng(3)
    A = random_tensor(rng, 3, 3, 2)
    G = random_tensor(rng, 3, 3, 2)
    code, out, _ = run(capsys, "along", write(tmp_path, "a.ct", A), write(tmp_path, "g.ct", G))
    assert code == 0 and out.startswith("ct-tensor 1")


def test_index(square, capsys):
    _, path = square
    code, out, _ = run(capsys, "index", path)
    assert code == 0
    assert out.strip() == "0"


def test_decomp_stream_and_files(square, tmp_path, capsys):
    _, path = square
    code, out, err = run(capsys, "decomp", path, "--kind", "qdr")
    assert code == 0
    assert out.count("# factor") == 3
    assert "# rank 3" in err
    prefix = tmp_path / "f"
    code, out, _ = run(capsys, "decomp", path, "--kind", "qdr", "-o", str(prefix))
    assert code == 0 and out == ""
    for name in ("Q", "D", "R"):
        assert (tmp_path / f"f.{name}.ct").exists()


def test_decomp_rank_mismatch_is_domain_error(tmp_path, capsys):
    ctx = build_context(2)
    hats = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
    A = tensor_from_transform_slices(hats, ctx)
    code, _, err = run(capsys, "decomp", write(tmp_path, "a.ct", A), "--kind", "fullrank")
    assert code == 1
    assert "unequal ranks" in err


def test_markov(tmp_path, capsys):
    rng = np.random.default_rng(4)
    ctx = build_context(2)
    base = stochastic_matrix(rng, 3)
    P = tensor_from_transform_slices(np.stack([base] * 2), ctx)
    path = write(tmp_path, "p.ct", P)
    code, out, err = run(capsys, "markov", path)
    assert code == 0 and out.startswith("ct-tensor 1")
    code, out, err = run(capsys, "markov", path, "--estimator", "cesaro", "--steps", "4")
    assert code == 0
    assert len([l for l in err.splitlines() if l.startswith("# step")]) == 4


def test_markov_rejects_bad_alpha(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ctx = build_context(2)
    P = tensor_from_transform_slices(np.stack([stochastic_matrix(rng, 2)] * 2), ctx)
    code, _, err = run(
        capsys, "markov", write(tmp_path, "p.ct", P), "--estimator", "alpha", "--alpha", "1.5"
    )
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("steps", ["0", "-5", "x"])
def test_markov_rejects_bad_steps(tmp_path, capsys, steps):
    rng = np.random.default_rng(5)
    ctx = build_context(2)
    P = tensor_from_transform_slices(np.stack([stochastic_matrix(rng, 2)] * 2), ctx)
    code, out, err = run(
        capsys, "markov", write(tmp_path, "p.ct", P), "--estimator", "cesaro", f"--steps={steps}"
    )
    assert code == 2 and out == ""
    assert "error: argument --steps: must be an integer" in err


@pytest.mark.parametrize("command", ["index", "pinv", "drazin", "decomp", "check"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-8", "abc"])
def test_bad_tol_is_exit_two(square, capsys, command, tol):
    _, path = square
    extra = {"decomp": ["--kind", "fullrank"], "check": [path, "--relation", "mp"]}.get(command, [])
    code, out, err = run(capsys, command, path, *extra, f"--tol={tol}")
    assert code == 2 and out == ""
    assert "error: argument --tol: must be a finite number" in err


def test_zero_tol_is_accepted(square, capsys):
    _, path = square
    code, out, _ = run(capsys, "index", path, "--tol", "0")
    assert code == 0 and out.strip() == "0"


def test_markov_rejects_nonstochastic(square, capsys):
    _, path = square
    code, _, err = run(capsys, "markov", path)
    assert code == 1
    assert "not a transition tensor" in err


def test_check_mp(square, tmp_path, capsys):
    A, path = square
    code, out, _ = run(capsys, "pinv", path, "-o", str(tmp_path / "x.ct"))
    assert code == 0
    code, out, _ = run(capsys, "check", path, str(tmp_path / "x.ct"), "--relation", "mp")
    assert code == 0
    lines = dict(l.split() for l in out.splitlines())
    assert set(lines) == {"axa", "xax", "ax_hermitian", "xa_hermitian"}
    assert all(float(v) < 1e-10 for v in lines.values())


@pytest.mark.parametrize("relation,count", [("mp", 2), ("drazin", 2), ("along", 3)])
def test_check_shape_mismatch_is_domain_error(tmp_path, capsys, relation, count):
    path = write(tmp_path, "a.ct", random_tensor(np.random.default_rng(5), 3, 5, 4))
    code, out, err = run(capsys, "check", *[path] * count, "--relation", relation)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_check_along_needs_three_files(square, capsys):
    _, path = square
    code, _, err = run(capsys, "check", path, path, "--relation", "along")
    assert code == 2
    assert "takes 3 files" in err


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(capsys, "pinv", "no-such-file.ct")
    assert code == 2
    assert "error:" in err


def test_malformed_file_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ct"
    bad.write_text("ct-tensor 9\n")
    code, _, err = run(capsys, "pinv", str(bad))
    assert code == 2
    assert "line 1" in err


def test_non_utf8_file_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ct"
    bad.write_bytes(b"ct-tensor 1\ndims 1 1 1\nfield real\nslice 0\n\xff\n")
    code, out, err = run(capsys, "pinv", str(bad))
    assert code == 2 and out == ""
    assert "line 5" in err and "not valid UTF-8" in err


def test_oversized_header_dims_are_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ct"
    bad.write_text("ct-tensor 1\ndims 100000 100000 100000\nfield real\nslice 0\n1\n")
    code, out, err = run(capsys, "index", str(bad))
    assert code == 2 and out == ""
    assert "row 0 of slice 0 has 1 entries, expected 100000" in err


@pytest.mark.parametrize("command", ["pinv", "cprod"])
@pytest.mark.parametrize("entry", ["nan", "inf", "(1,nan)"])
def test_non_finite_file_is_exit_two(tmp_path, capsys, command, entry):
    field = "complex" if entry.startswith("(") else "real"
    bad = tmp_path / "bad.ct"
    bad.write_text(f"ct-tensor 1\ndims 1 1 1\nfield {field}\nslice 0\n{entry}\n")
    args = [str(bad)] * (2 if command == "cprod" else 1)
    code, out, err = run(capsys, command, *args)
    assert code == 2 and out == ""
    assert "line 5" in err and "non-finite" in err


def test_real_input_gives_real_pinv_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    A = random_tensor(rng, 4, 3, 5)
    code, out, _ = run(capsys, "pinv", write(tmp_path, "a.ct", A))
    assert code == 0
    assert out.splitlines()[2] == "field real"


def test_shape_mismatch_is_exit_one(tmp_path, capsys):
    rng = np.random.default_rng(6)
    A = random_tensor(rng, 2, 3, 2)
    B = random_tensor(rng, 2, 3, 2)
    code, _, err = run(capsys, "cprod", write(tmp_path, "a.ct", A), write(tmp_path, "b.ct", B))
    assert code == 1
    assert "cannot multiply" in err


def test_singular_blocks_are_exit_codes_not_exceptions(tmp_path, capsys):
    """Every inverse route, the index and every factorization, at the default
    cutoff and at --tol 0, on inputs whose square blocks are exactly
    singular, zero, empty or nilpotent: main() returns 0, 1 or 2 and never
    raises, and every failure is one error line."""
    nilpotent = np.zeros((2, 2, 2))
    nilpotent[:, 0, 1] = [1.0, 2.0]
    pairs = [
        (np.array([[[1.0, 2.0], [2.0, 4.0]]]), 1e300 * np.array([[[1.5, 0.5], [0.5, 1.5]]])),
        (np.zeros((4, 3, 3)), None),
        (np.zeros((3, 0, 0)), None),
        (nilpotent, None),
    ]
    commands = []
    for i, (a, g) in enumerate(pairs):
        a = write(tmp_path, f"a{i}.ct", Tensor3(a))
        g = a if g is None else write(tmp_path, f"g{i}.ct", Tensor3(g))
        for tol in ([], ["--tol", "0"]):
            commands += [["pinv", a, "--method", m.value, *tol] for m in MpMethod]
            commands += [["drazin", a, "--method", m.value, *tol] for m in DrazinMethod]
            commands += [["group", a, *tol], ["index", a, *tol]]
            commands += [["decomp", a, "--kind", k, *tol] for k in ["svd", "qr", "schur", "fullrank", "qdr", "hs", "corenil"]]
            commands += [["along", a, g, "--method", m.value, *tol] for m in AlongMethod]
    assert len(commands) == 184
    for command in commands:
        code, _, err = run(capsys, *command)
        assert code in (0, 1, 2), command
        assert code == 0 or err.startswith("error: ") and err.count("\n") == 1, command


def test_usage_errors_exit_two(capsys):
    assert main(["pinv"]) == 2  # missing positional
    capsys.readouterr()
    assert main(["decomp", "x.ct", "--kind", "cholesky"]) == 2  # bad choice
    capsys.readouterr()
    assert main([]) == 2  # no subcommand
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "ctprod" in out


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    # One transform slice has a singular value of 1e-5: --tol 1e-3 cuts it,
    # the default cutoff keeps it.
    ctx = build_context(2)
    hats = np.stack([np.diag([1.0, 1e-5]), np.diag([2.0, 1.0])]).astype(complex)
    A = tensor_from_transform_slices(hats, ctx)
    path = write(tmp_path, "a.ct", A)
    code, cut, _ = run(capsys, "pinv", "--tol", "1e-3", path)
    assert code == 0
    code, default, _ = run(capsys, "pinv", path)
    assert code == 0
    assert default.encode() == write_tensor_file(mp_inverse(A, ctx).X) != cut.encode()
    code, out, _ = run(capsys, "index", path)
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "decomp", path, "--kind", "svd")
    assert code == 0 and out.count("# factor") == 3


def test_scipy_stays_unloaded_on_the_default_paths(tmp_path):
    A = random_tensor(np.random.default_rng(3), 3, 3, 2)
    script = (
        "import sys, ctprod, ctprod.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert ctprod.cli.main(['pinv', sys.argv[1], '-o', sys.argv[2]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'pinv'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-c", script, write(tmp_path, "a.ct", A), str(tmp_path / "x.ct")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr


def _spelled_out_parser():
    """The CLI's parser spelled out argument by argument, each subcommand's
    arguments in their declared order."""
    parser = argparse.ArgumentParser(prog="ctprod", description="Tensor algebra under the C-product.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    tol = dict(type=_tolerance, default=None, help="rank tolerance override")
    output = dict(default=None, help="write the result here instead of stdout")

    p = sub.add_parser("cprod", help="multiply two tensors")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse")
    p.add_argument("a")
    p.add_argument("--method", choices=[m.value for m in MpMethod], default=MpMethod.SLICEWISE.value)
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("drazin", help="Drazin inverse")
    p.add_argument("a")
    p.add_argument("--method", choices=[m.value for m in DrazinMethod], default=DrazinMethod.POWER.value)
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("group", help="group inverse (requires index <= 1)")
    p.add_argument("a")
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("along", help="inverse of the first tensor along the second")
    p.add_argument("a")
    p.add_argument("g")
    p.add_argument("--method", choices=[m.value for m in AlongMethod], default=AlongMethod.SVD_OF_G.value)
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("index", help="print the tensor index")
    p.add_argument("a")
    p.add_argument("--tol", **tol)

    p = sub.add_parser("decomp", help="factor a tensor")
    p.add_argument("a")
    p.add_argument("--kind", required=True, choices=["svd", "qr", "schur", "fullrank", "qdr", "hs", "corenil"])
    p.add_argument("--tol", **tol)
    p.add_argument(
        "-o", "--output", default=None, help="prefix: each factor goes to PREFIX.<name>.ct instead of stdout"
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
    p.add_argument("--tol", **tol)
    p.add_argument("-o", "--output", **output)

    p = sub.add_parser("check", help="report residuals of an inverse relation")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--relation", choices=["mp", "drazin", "along"], required=True)
    p.add_argument("--tol", **tol)
    return parser


@pytest.mark.parametrize(
    "command", [None, "cprod", "pinv", "drazin", "group", "along", "index", "decomp", "markov", "check"]
)
def test_help_text_is_pinned(capsys, command):
    """--help prints, for the top level and every subcommand, exactly what the
    spelled-out parser prints: same usage line, arguments, order and help."""
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit):
        _spelled_out_parser().parse_args(argv)
    expected = capsys.readouterr().out
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
