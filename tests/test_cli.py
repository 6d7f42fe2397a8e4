import pytest

from krec.cli import main
from krec.config import CSV_HEADER


def _cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_with_config_and_csv(tmp_path, capsys):
    cfg = _cfg(tmp_path, "\n".join([
        "function = invsqrt",
        "method = fom",
        "matrix = gen:hpd:N=100,seed=1",
        "m = 15",
        "num_problems = 2",
        "seed = 3",
        "",
    ]))
    out = tmp_path / "out.csv"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    printed = capsys.readouterr().out
    assert "total" in printed
    assert printed.count("problem ") == 2


def test_cli_overrides_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, "\n".join([
        "function = inv",
        "method = fom",
        "matrix = gen:hpd:N=80,seed=2",
        "m = 10",
        "num_problems = 3",
        "",
    ]))
    code = main(["run", "--config", cfg, "--num-problems", "1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("problem ") == 1


def test_flags_only_no_config(tmp_path):
    out = tmp_path / "o.csv"
    code = main(["run", "--function", "exp", "--tau", "-0.05",
                 "--method", "srfom-stab", "--matrix", "gen:hpd:N=90,seed=4",
                 "--m", "12", "--k", "3", "--s", "60",
                 "--num-problems", "2", "--seed", "1",
                 "--perturbation", "1e-8", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert all("srfom_stab" in line for line in lines[1:])


def test_error_exit_code(tmp_path, capsys):
    # (config text, what the error line must name); malformed values are
    # errors on record, not tracebacks
    good = "function = inv\nmethod = fom\nmatrix = gen:hpd:N=50\nm = 10\n"
    cases = [
        (good.replace("method = fom", "method = sfom"), "error"),
        (good.replace("m = 10", "m = abc"), "'m'"),
        (good.replace("method = fom", "method = rfom") + "k = 1.5\n", "'k'"),
        (good.replace("function = inv", "function = sqrt"), "'function'"),
        (good.replace("method = fom", "method = sfom") + "s = 100\n", "s=100"),
        (good.replace("method = fom", "method = sfom") + "s = 40\nt = 0\n", "t >= 1"),
        (good + "shift = nan\n", "'shift'"),
        (good.replace("function = inv", "function = exp") + "tau = inf\n", "'tau'"),
        (good + "adaptive = true\nreltol = nan\n", "'reltol'"),
        (good + "perturbation = -1e-3\n", "perturbation"),
        (good.replace("method = fom", "method = srfom-stab")
         + "k = 2\ns = 40\nsvdtol = 2.0\n", "svdtol"),
        (good + "adaptive = true\nstop_rule = oracle\noracle_cap = 10\n", "oracle cap"),
        # adaptive runs are bounded by m_max, and the message says so
        (good.replace("method = fom", "method = sfom")
         + "s = 20\nadaptive = true\nm_max = 20\n", "need m_max < s"),
        (good.replace("method = fom", "method = rfom")
         + "k = 25\nadaptive = true\nm_max = 20\n", "need 0 <= k < m_max"),
        # values the solver or a generator rejects are input errors too
        (good.replace("m = 10", "m = 0"), "need m >= 1"),
        (good + "seed = -1\n", "need seed >= 0"),
        (good.replace("gen:hpd:N=50", "gen:neumann2d:n=1"), "generator 'neumann2d'"),
        (good.replace("N=50", "N=0"), "generator 'hpd'"),
        # rejected, not clamped: a negative oracle cap would drop every
        # relerr without a word
        (good + "oracle_cap = -1\n", "need oracle_cap >= 0"),
        # a sequence runs once: there is no repetition count to set
        (good + "timing_reps = 3\n", "unknown config key(s): timing_reps"),
        # the grown QR of [U, V_m] has at most N columns
        (good.replace("method = fom", "method = rfom").replace("m = 10", "m = 30")
         + "k = 25\n", "need k + m <= N = 50 for rfom"),
        # a key the run would not read is rejected, not dropped
        (good + "reltol = 1e-12\n", "'reltol'"),
        (good + "adaptive = false\nd = 5\n", "'d'"),
        (good + "m_max = 40\n", "'m_max'"),
        (good + "tau = 0.5\n", "'tau'"),
        # generator sizes and seeds are integers, and twocluster's small
        # cluster fits in N
        (good.replace("N=50", "N=50.0"), "generator 'hpd'"),
        (good.replace("N=50", "N=50,seed=1.5"), "generator 'hpd'"),
        (good.replace("gen:hpd:N=50", "gen:neumann2d:n=4.5"), "generator 'neumann2d'"),
        (good.replace("gen:hpd:N=50", "gen:twocluster:N=10"), "nsmall"),
    ]
    for text, name in cases:
        code = main(["run", "--config", _cfg(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and name in err


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = _cfg(tmp_path, "function = inv\nmethod = fom\n"
                         "matrix = gen:hpd:N=50\nm = 10\nbogus = 1\n")
    flags = ["--function", "inv", "--method", "fom", "--m", "10",
             "--matrix", "gen:hpd:N=50,bogus=1"]
    for argv in (["--config", cfg], flags):
        code = main(["run"] + argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "bogus" in err


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_non_finite_matrix_market_entry_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n2 2 nan\n", encoding="utf-8")
    code = main(["run", "--function", "inv", "--method", "fom", "--m", "2",
                 "--matrix", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "line 4" in err


def test_non_square_matrix_market_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 4 3\n1 1 1.0\n2 2 2.0\n3 4 3.0\n", encoding="utf-8")
    code = main(["run", "--function", "inv", "--method", "fom", "--m", "2",
                 "--matrix", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "3x4" in err


def test_unusable_path_exit_code(tmp_path, capsys):
    # a path that cannot be read or written is an error line that names it
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("function = inv  # r\xe9sum\xe9\n".encode("latin-1"))
    flags = ["--function", "inv", "--method", "fom", "--m", "5",
             "--matrix", "gen:hpd:N=50"]
    cases = [
        (["--config", str(tmp_path / "missing.cfg")], "missing.cfg"),
        (["--config", str(latin1)], "latin1.cfg"),
        (flags[:-1] + [str(tmp_path / "missing.mtx")], "missing.mtx"),
        (flags + ["--out", str(tmp_path / "no-dir" / "out.csv")], "out.csv"),
    ]
    for argv, name in cases:
        code = main(["run"] + argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and name in err
