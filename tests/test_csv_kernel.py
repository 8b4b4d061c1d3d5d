"""The `%.17g` kernel of the CSV writers against Python's own formatting.

Every value goes through `_write_table` as one float column, so the
kernel (`_float_field`), its per-value fallback and the chunking all
take part; each file must equal `format(x + 0.0, ".17g")` line by line.
The edge sets come first, so they land in a chunk long enough for the
kernel rather than the value-by-value path.  Seeds are fixed.
"""

from fractions import Fraction

import numpy as np
import pytest

from fgncontrol import reporting


def written(tmp_path, values) -> bytes:
    path = tmp_path / "x.csv"
    with np.errstate(invalid="ignore"):  # signalling NaNs among the random bit patterns
        reporting._write_table(str(path), "x", [(values,)])
    return path.read_bytes()


def expected(values) -> bytes:
    return ("x\n" + "".join(format(v + 0.0, ".17g") + "\n" for v in values.tolist())).encode()


def neighbours(values, ulps=2):
    """Each value and its `ulps` nearest floats on either side."""
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def power_of_ten(k: int) -> float:
    """10^k correctly rounded."""
    return float(Fraction(10) ** k)


def powers_of_ten():
    return np.array([power_of_ten(k) for k in range(-323, 309)])


def carries():
    """Floats below a power of ten whose 17-digit rounding is that power."""
    found = []
    for k in range(-300, 301):
        x = power_of_ten(k)
        if Fraction(x) >= Fraction(10) ** k:
            x = float(np.nextafter(x, 0.0))
        if Fraction(format(x, ".17g")) == Fraction(10) ** k:
            found.append(x)
    return np.array(found)


def ties():
    """Dyadic values exactly halfway between two 17-digit decimals.

    a = j / 2^(k+1) with odd j puts a·10^k = j·5^k/2 on a half-integer;
    for 1 <= k <= 24 such a value has 17 digits before the point and j
    is below 2^53, so a is exact.
    """
    found = []
    for k in range(1, 25):
        start = int(np.ceil(2e16 / 5**k)) | 1
        for j in range(start, min(int(2e17 / 5**k), start + 400), 2):
            found.append(j / 2.0 ** (k + 1))
    return np.array(found)


def edge_values():
    rng = np.random.default_rng(20)
    switch = neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), ulps=3)
    big_integers = np.ldexp(rng.integers(2**52, 2**53, 2000).astype(np.float64),
                            rng.integers(1, 60, 2000))
    subnormals = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0**53,
                         2.0**53 + 2.0, 1.7976931348623157e308, 2.2250738585072014e-308])
    parts = [neighbours(powers_of_ten()), switch, carries(), ties(), big_integers,
             subnormals, specials]
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


def test_edge_sets_are_not_vacuous():
    assert len(carries()) >= 5
    t = ties()
    assert len(t) >= 1000
    # each is a tie: 17 digits after the scaling leave exactly 1/2
    for a in t[:: len(t) // 50]:
        scaled = Fraction(a)
        while scaled < 10**16:
            scaled *= 10
        assert scaled < 10**17 and scaled - int(scaled) == Fraction(1, 2)


def test_kernel_matches_python_formatting(tmp_path):
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, 450_000, dtype=np.uint64).view(np.float64)
    scaled_normals = rng.standard_normal(550_000) * 10.0 ** rng.integers(-20, 21, 550_000)
    values = np.concatenate([edge_values(), bits, scaled_normals])
    assert values.size >= 10**6
    assert written(tmp_path, values) == expected(values)


@pytest.mark.parametrize("scale", [1e-270, 1e-20, 1.0, 1e20, 1e270])
def test_kernel_certifies_ordinary_values(scale):
    # normals scaled anywhere inside the certified range need no fallback
    # beyond the rare near-ties
    a = np.abs(np.random.default_rng(22).standard_normal(20_000)) * scale
    _, _, certified = reporting._decimal(a)
    assert certified.mean() > 0.999


def test_uncertified_values_fall_back(tmp_path):
    # out of range, non-finite and tied values alone, in one long column
    values = np.tile(np.concatenate([ties()[:100], [1e-300, 1e300, np.inf, np.nan, 5e-324]]), 20)
    _, _, certified = reporting._decimal(np.abs(values))
    assert not certified.any()
    assert written(tmp_path, values) == expected(values)


def test_chunks_of_one_value_form(tmp_path):
    # kernel chunks of only zeros, only fixed-form values (the 0.000ddd
    # lead form included) and only exponent-form values (three-digit
    # exponents included): each skips the exponent rows, the zero
    # fix-ups, or both
    rng = np.random.default_rng(23)
    size = 512
    mantissas = rng.uniform(1.0, 9.9, size) * rng.choice([-1.0, 1.0], size)
    zeros = np.resize([0.0, -0.0], size)
    fixed = mantissas * 10.0 ** rng.integers(-4, 16, size)
    exponent = mantissas * 10.0 ** np.concatenate([rng.integers(-270, -4, size // 2),
                                                   rng.integers(17, 270, size - size // 2)])
    for values, form in ((fixed, True), (exponent, False)):
        e = reporting._decimal(np.abs(values))[1]
        assert np.all(((e >= -4) & (e <= 16)) == form)
    for values in (zeros, fixed, exponent):
        assert written(tmp_path, values) == expected(values)


@pytest.mark.parametrize("extreme", [None, -2**31, 2**31, 2**62])
def test_integer_columns_match_percent_d(tmp_path, monkeypatch, extreme):
    # digits are taken in int32 when the column's largest |v| is below 2^31,
    # else in int64
    edges = [0, -1, 10**7, 2**31 - 1] + ([] if extreme is None else [extreme])
    values = np.resize(np.array(edges, np.int64), 512)
    digits, real = [], reporting._digits
    monkeypatch.setattr(reporting, "_digits", lambda v, out: digits.append(v.dtype) or real(v, out))
    path = tmp_path / "k.csv"
    reporting._write_table(str(path), "k", [(values,)])
    assert path.read_bytes() == ("k\n" + "".join("%d\n" % v for v in values.tolist())).encode()
    assert digits == [np.dtype(np.int32 if extreme is None else np.int64)]


@pytest.mark.parametrize("rows", [1, 13, 40, 255])
def test_short_integer_columns_match_percent_d(tmp_path, monkeypatch, rows):
    # every integer column goes through the kernel, however short its chunk;
    # negatives and |v| >= 2^31 lead, random magnitudes follow
    rng = np.random.default_rng(rows)
    random = rng.integers(-2**40, 2**40, rows) >> rng.integers(0, 40, rows)
    values = np.concatenate([[-2**33 - 5, 2**31, -1, 0], random])[:rows]
    kernel = []
    real = reporting._int_field
    monkeypatch.setattr(reporting, "_int_field", lambda v, out: kernel.append(len(v)) or real(v, out))
    path = tmp_path / "k.csv"
    reporting._write_table(str(path), "k", [(values,)])
    assert path.read_bytes() == ("k\n" + "".join("%d\n" % v for v in values.tolist())).encode()
    assert kernel == [rows]
