import numpy as np
import pytest

from krec import MatrixMarketError, gen_hpd, read_matrix_market, write_matrix_market


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_complex_general_hand_file(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate complex general",
        "% a comment",
        "2 2 2",
        "1 1 1.0 0.0",
        "2 1 0.0 1.0",
        "",
    ]))
    A = read_matrix_market(path)
    want = np.array([[1.0, 0.0], [1.0j, 0.0]])
    np.testing.assert_allclose(A.to_dense(), want, atol=1e-15)


def test_real_symmetric_expansion(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real symmetric",
        "3 3 4",
        "1 1 2.0",
        "2 1 -1.0",
        "3 2 -1.0",
        "3 3 2.0",
        "",
    ]))
    A = read_matrix_market(path).to_dense()
    np.testing.assert_allclose(A, A.T, atol=1e-15)
    assert A[0, 1] == -1.0 and A[1, 0] == -1.0


def test_hermitian_expansion(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate complex hermitian",
        "2 2 2",
        "1 1 3.0 0.0",
        "2 1 1.0 2.0",
        "",
    ]))
    A = read_matrix_market(path).to_dense()
    assert A[0, 1] == np.conj(A[1, 0]) == 1.0 - 2.0j


def test_skew_symmetric_expansion(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real skew-symmetric",
        "2 2 1",
        "2 1 4.0",
        "",
    ]))
    A = read_matrix_market(path).to_dense()
    assert A[1, 0] == 4.0 and A[0, 1] == -4.0


def test_integer_field_and_duplicates_summed(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate integer general",
        "2 2 3",
        "1 1 2",
        "1 1 3",
        "2 2 7",
        "",
    ]))
    A = read_matrix_market(path).to_dense()
    np.testing.assert_allclose(A, np.diag([5.0, 7.0]))


def test_round_trip(tmp_path):
    A = gen_hpd(30, seed=0)
    path = str(tmp_path / "rt.mtx")
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert np.linalg.norm(B.to_dense() - A.to_dense()) <= 1e-14 * np.linalg.norm(A.to_dense())


@pytest.mark.parametrize("field,entry", [
    ("real", "nan"), ("real", "inf"), ("real", "-Infinity"),
    ("complex", "1.0 nan"), ("complex", "inf 0.0"),
])
def test_non_finite_entry_names_its_line(tmp_path, field, entry):
    path = _write(tmp_path, "\n".join([
        f"%%MatrixMarket matrix coordinate {field} general",
        "2 2 2",
        "1 1 1.0" + (" 0.0" if field == "complex" else ""),
        f"2 2 {entry}",
        "",
    ]))
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line_number == 4
    assert "non-finite" in str(err.value)


def test_error_line_numbers(tmp_path):
    bad_banner = _write(tmp_path, "%%NotMatrixMarket\n1 1 0\n", name="a.mtx")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(bad_banner)
    assert err.value.line_number == 1

    bad_entry = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2",
        "1 1 1.0",
        "2 oops 1.0",
        "",
    ]), name="b.mtx")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(bad_entry)
    assert err.value.line_number == 4
    assert "line 4" in str(err.value)

    out_of_bounds = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 1",
        "3 1 1.0",
        "",
    ]), name="c.mtx")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(out_of_bounds)
    assert err.value.line_number == 3


def test_entry_count_mismatch(tmp_path):
    path = _write(tmp_path, "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2",
        "1 1 1.0",
        "",
    ]))
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_unsupported_field(tmp_path):
    path = _write(tmp_path,
                  "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line_number == 1
