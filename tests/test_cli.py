"""Command-line interface: happy paths, exit codes, and determinism."""

import argparse
import os
import subprocess
import sys
import warnings
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
import ctprod.cli as cli
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


@pytest.mark.parametrize("n3", [1, 4])
@pytest.mark.parametrize(
    "relation,count,overflowed", [("mp", 2, {"xax"}), ("drazin", 2, {"xax"}), ("along", 3, {"xag", "gax"})]
)
def test_check_overflow_reads_inf_with_nothing_on_stderr(tmp_path, capsys, relation, count, overflowed, n3):
    # G = X = 1e300 A: the products through X twice overflow float64.  At
    # n3 > 1 the inverse map mixes their inf entries, which must not read NaN.
    A = random_tensor(np.random.default_rng(0), 2, 2, n3)
    g = write(tmp_path, "g.ct", Tensor3(A.slices * 1e300))
    code, out, err = run(capsys, "check", write(tmp_path, "a.ct", A), *[g] * (count - 1), "--relation", relation)
    assert code == 0 and err == ""
    lines = {label: float(value) for label, value in (l.split() for l in out.splitlines())}
    assert {label for label, value in lines.items() if value == np.inf} == overflowed
    assert all(np.isfinite(lines[label]) for label in lines.keys() - overflowed)


@pytest.mark.parametrize("n3", [4, 256, 1024])
@pytest.mark.parametrize("command", [["index"], ["pinv"], ["cprod", "A"], ["markov"], ["decomp", "--kind", "svd"]])
def test_overflowing_input_is_quiet_and_writes_no_non_finite_file(tmp_path, capsys, command, n3):
    # Every entry 1.7e308: the transform overflows (by a dense map at
    # n3 = 4 and 256, by the FFT map at 1024).  No numpy warning is raised, and no
    # NaN or inf is written: the command exits 1 with one error line and
    # nothing on stdout (see test_index_refuses_an_overflowed_transform).
    path = write(tmp_path, "a.ct", Tensor3(np.full((n3, 2, 2), 1.7e308)))
    args = [command[0], path] + [path if a == "A" else a for a in command[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *args)
        if command[0] == "cprod":
            out_file = tmp_path / "c.ct"
            assert run(capsys, *args, "-o", str(out_file)) == (code, "", err)
            assert not out_file.exists()
    assert not caught
    if code == 0:
        assert command == ["index"] and out.strip().isdigit() and err == ""
    else:
        assert code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("n3", [1, 4, 256, 1024])
def test_index_refuses_an_overflowed_transform(tmp_path, capsys, n3):
    # Every entry 1.7e308.  At n3 = 1 the transform is the identity and the
    # slice is finite: its index is 1.  From n3 = 4 on the transform slices
    # hold inf and NaN, from which no rank or index can be read, so index,
    # and check --relation drazin, which reads the index first, exit 1.
    path = write(tmp_path, "a.ct", Tensor3(np.full((n3, 2, 2), 1.7e308)))
    for args in (["index", path], ["check", path, path, "--relation", "drazin"]):
        code, out, err = run(capsys, *args)
        if n3 == 1:
            assert code == 0 and err == "" and out
            assert args[0] != "index" or out == "1\n"
        else:
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and "non-finite" in err


def test_index_of_a_slice_whose_powers_overflow(tmp_path, capsys):
    # The 3 x 3 x 1 shift with entries 1e200: its square overflows, but the
    # index is read from the powers of the slice scaled by a power of two.
    path = write(tmp_path, "a.ct", Tensor3(1e200 * np.eye(3, k=1)[None]))
    assert run(capsys, "index", path) == (0, "3\n", "")


@pytest.mark.parametrize("method", ["power", "qdr", "corenil", "hs"])
def test_drazin_of_a_slice_whose_powers_overflow(tmp_path, capsys, method):
    # The 1e200 shift above: every Drazin route forms its powers on the slice
    # scaled by a power of two, and so does the core-nilpotent split.
    a = 1e200 * np.eye(3, k=1)[None]
    path = write(tmp_path, "a.ct", Tensor3(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "drazin", path, "--method", method)
        assert (code, err) == (0, "# index 3\n") and not parse_tensor_file(out).slices.any()
        prefix = str(tmp_path / "f")
        assert run(capsys, "decomp", path, "--kind", "corenil", "-o", prefix) == (0, "", "# index 3\n")
    assert not parse_tensor_file(Path(f"{prefix}.C.ct").read_bytes()).slices.any()
    assert np.array_equal(parse_tensor_file(Path(f"{prefix}.N.ct").read_bytes()).slices, a)


def test_a_lapack_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = write(tmp_path, "a.ct", random_tensor(np.random.default_rng(5), 2, 2, 4))
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert run(capsys, "index", path) == (1, "", "error: SVD did not converge\n")


def test_pinv_of_a_slice_whose_sigma_max_overflows(tmp_path, capsys):
    # A 2 x 2 x 1 tensor of 1.7e308: the slice is finite, but LAPACK returns
    # sigma_max = inf for it.  pinv rescales it and writes its pseudoinverse,
    # ones / (4 * 1.7e308), not zeros.
    path = write(tmp_path, "a.ct", Tensor3(np.full((1, 2, 2), 1.7e308)))
    code, out, err = run(capsys, "pinv", path)
    assert code == 0 and err == ""
    np.testing.assert_allclose(parse_tensor_file(out).slices, np.full((1, 2, 2), 0.25 / 1.7e308), rtol=1e-13)
    # The svd route reads the same scaled SVD.  The full-rank factor holds
    # sigma_max = inf and V^H A U overflows: those routes refuse the slice.
    assert run(capsys, "pinv", path, "--method", "svd") == (0, out, "")
    for command in (["pinv", path, "--method", "fullrank"], ["along", path, path]):
        code, out, err = run(capsys, *command)
        assert code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: "), command


def test_every_route_refuses_an_overflowed_transform(tmp_path, capsys):
    # Every inverse route and factorization of a 2 x 2 x 4 tensor of 1.7e308,
    # whose transform slices hold inf and NaN: exit 1 with one error line
    # (the Schur routes once raised scipy's ValueError instead).
    path = write(tmp_path, "a.ct", Tensor3(np.full((4, 2, 2), 1.7e308)))
    commands = [["pinv", path, "--method", m.value] for m in MpMethod]
    commands += [["drazin", path, "--method", m.value] for m in DrazinMethod]
    commands += [["along", path, path, "--method", m.value] for m in AlongMethod]
    commands += [["decomp", path, "--kind", k] for k in ["svd", "qr", "schur", "fullrank", "qdr", "hs", "corenil"]]
    for command in [*commands, ["group", path]]:
        code, out, err = run(capsys, *command)
        assert code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: "), command


def test_in_process_calls_build_one_context_per_n3(tmp_path, capsys, monkeypatch):
    # cli.main keeps the contexts of the last few n3 values: repeated calls
    # at one n3 build it once.
    built = []
    monkeypatch.setattr(cli, "build_context", lambda n3: built.append(n3) or build_context(n3))
    cli._context.cache_clear()
    try:
        rng = np.random.default_rng(3)
        a = write(tmp_path, "a.ct", random_tensor(rng, 2, 2, 8))
        b = write(tmp_path, "b.ct", random_tensor(rng, 2, 2, 16))
        for path in (a, a, b, a, b):
            assert run(capsys, "pinv", path)[0] == 0
        assert built == [8, 16]
    finally:
        cli._context.cache_clear()


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


def test_scipy_linalg_stays_unloaded_on_the_schur_and_qdr_paths(tmp_path):
    """The Schur and QDR paths load SciPy's compiled LAPACK module alone.  A
    later import of scipy.linalg still works, and its schur and pivoted qr
    agree with the kernels bit for bit in the same process."""
    A = random_tensor(np.random.default_rng(3), 3, 3, 2)
    script = (
        "import sys, numpy as np, ctprod.cli\n"
        "from ctprod.kernels import qr_pivoted, schur_matrix\n"
        "assert ctprod.cli.main(['decomp', sys.argv[1], '--kind', 'schur', '-o', sys.argv[2]]) == 0\n"
        "assert ctprod.cli.main(['pinv', sys.argv[1], '--method', 'qdr', '-o', sys.argv[2] + '.ct']) == 0\n"
        "loaded = {'scipy.linalg', 'scipy.linalg._flapack'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "import scipy.linalg\n"
        "r = np.random.default_rng(5).standard_normal((2, 2, 3, 6, 6))\n"
        "a = r[0] + 1j * r[1]\n"
        "for x in (a.real, a):\n"
        "    f = schur_matrix(x)\n"
        "    T, Z = scipy.linalg.schur(x, output='complex')\n"
        "    assert np.array_equal(f.T, T) and np.array_equal(f.Q, Z.conj().swapaxes(-1, -2))\n"
        "    f, piv = qr_pivoted(x)\n"
        "    Q, R, P = scipy.linalg.qr(x, pivoting=True)\n"
        "    assert np.array_equal(f.Q, Q) and np.array_equal(f.R, R) and np.array_equal(piv, P)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-c", script, write(tmp_path, "a.ct", A), str(tmp_path / "x")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ct", "x.Q.ct", "x.T.ct", "x.ct"]


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
