import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreisslab.operators import (
    ComplexMatrix,
    InvalidOperatorError,
    MatrixParseError,
    NonSquareError,
    OperatorSpec,
    gallery,
    gallery_entry,
    load_matrix,
    make_gallery_operator,
    save_matrix,
)
from kreisslab.positivity import PositiveOperator


def test_identity_constructor():
    T = make_gallery_operator(OperatorSpec("identity", 3))
    assert np.array_equal(T.entries, np.eye(3))


def test_nilpotent_constructor():
    T = make_gallery_operator(OperatorSpec("nilpotent", 2, coupling=2.0))
    assert np.array_equal(T.entries, np.array([[0, 2], [0, 0]], dtype=complex))


def test_jordan_constructor():
    T = make_gallery_operator(OperatorSpec("jordan", 2, eigenvalue=1.0, coupling=1.0))
    assert np.array_equal(T.entries, np.array([[1, 1], [0, 1]], dtype=complex))


def test_rotation_scalar_angle():
    T = make_gallery_operator(OperatorSpec("rotation", 1, angles=0.3))
    assert T.entries[0, 0] == pytest.approx(np.exp(2j * np.pi * 0.3))


def test_rotation_angle_list_unimodular():
    T = make_gallery_operator(OperatorSpec("rotation", 3, angles=(0.1, 0.25, 0.7)))
    assert np.allclose(np.abs(np.diag(T.entries)), 1.0)
    assert np.count_nonzero(T.entries - np.diag(np.diag(T.entries))) == 0


def test_weighted_shift_weights():
    T = make_gallery_operator(OperatorSpec("weighted_shift", 3, weights=(2.0, 3.0)))
    assert T.entries[0, 1] == 2.0 and T.entries[1, 2] == 3.0
    assert T.entries[1, 0] == 0.0


def test_constructor_is_pure():
    spec = OperatorSpec("jordan", 4, eigenvalue=0.5 + 0.1j, coupling=0.7)
    a = make_gallery_operator(spec)
    b = make_gallery_operator(spec)
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize(
    "spec,field",
    [
        (OperatorSpec("weighted_shift", 3, weights=(1.0,)), "weights"),
        (OperatorSpec("weighted_shift", 3, weights=(1.0, -2.0)), "weights"),
        (OperatorSpec("rotation", 2, angles=(0.1,)), "angles"),
        (OperatorSpec("scalar", 2, scale=float("nan")), "scale"),
        (OperatorSpec("identity", 0), "dim"),
    ],
)
def test_invalid_parameters_name_the_field(spec, field):
    with pytest.raises(InvalidOperatorError) as err:
        make_gallery_operator(spec)
    assert err.value.field == field


def test_unknown_kind_rejected():
    with pytest.raises(InvalidOperatorError):
        make_gallery_operator(OperatorSpec("hadamard", 2))


def test_matrix_requires_square_and_finite():
    with pytest.raises(NonSquareError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.inf]]))


def test_load_identity_from_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0 0 0\n0 0 1 0\n")
    T = load_matrix(path)
    assert np.array_equal(T.entries, np.eye(2))


def test_load_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(MatrixParseError):
        load_matrix(path)


def test_load_non_square_payload(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0 0 0 0 0\n0 0 1 0 0 0\n")
    with pytest.raises(NonSquareError):
        load_matrix(path)


def test_load_bad_token_reports_line_and_column(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("1\nfoo 0\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert err.value.line == 2 and err.value.column == 1


@pytest.mark.parametrize("row, column", [("nan 0 0 0", 1), ("1 0 inf 0", 3), ("1 -inf 0 0", 2)])
def test_load_non_finite_token_reports_line_and_column(tmp_path, row, column):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"2\n{row}\n0 0 1 0\n")
    with pytest.raises(MatrixParseError, match="non-finite number") as err:
        load_matrix(path)
    assert err.value.line == 2 and err.value.column == column


def test_custom_kind_roundtrip(tmp_path):
    orig = make_gallery_operator(OperatorSpec("jordan", 3, eigenvalue=0.9j, coupling=0.25))
    path = tmp_path / "jordan.txt"
    save_matrix(orig, path)
    loaded = make_gallery_operator(OperatorSpec("custom", 3, path=str(path)))
    assert np.array_equal(loaded.entries, orig.entries)


@given(
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_save_load_roundtrip_bit_exact(d, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-12, 12)
    arr = arr + 1j * rng.standard_normal((d, d)) * 10.0 ** rng.integers(-12, 12)
    mat = ComplexMatrix(arr)
    import tempfile

    with tempfile.NamedTemporaryFile("w+", suffix=".txt", delete=False) as fh:
        name = fh.name
    save_matrix(mat, name)
    again = load_matrix(name)
    assert np.array_equal(again.entries, mat.entries)


def test_gallery_names_unique_and_documented():
    names = [e.name for e in gallery()]
    assert len(names) == len(set(names))
    for e in gallery():
        assert e.description
        T = make_gallery_operator(e.spec)
        assert T.dim == e.spec.dim
        if e.positive:
            PositiveOperator(T)  # raises unless T is real and entrywise nonnegative
        if e.nilpotent:
            assert np.allclose(np.linalg.matrix_power(T.entries, T.dim), 0.0)


def test_positive_gallery_subset():
    pos = {e.name for e in gallery() if e.positive}
    assert "identity3" in pos and "rotation1" not in pos


def test_gallery_entry_lookup():
    assert gallery_entry("jordan2").spec.kind == "jordan"
    with pytest.raises(KeyError):
        gallery_entry("missing")
