"""Binary containers: round trips are bit-exact, corruption is rejected."""

import struct
import warnings

import numpy as np
import pytest

from spheresig.errors import FormatError
from spheresig.formats import (
    read_ckpt1,
    read_spec1,
    read_sph1,
    write_ckpt1,
    write_spec1,
    write_sph1,
)
from spheresig.grid import make_grid
from spheresig.sft import SpectralCoeffs, SphericalSignal, random_coeffs


class TestSph1:
    def test_roundtrip_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = SphericalSignal(make_grid(8), rng.standard_normal((3, 16, 16)))
        path = str(tmp_path / "x.sph")
        write_sph1(path, sig)
        back = read_sph1(path)
        assert back.bandwidth == 8 and back.channels == 3
        np.testing.assert_array_equal(back.values, sig.values)

    def test_roundtrip_f32(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = SphericalSignal(make_grid(4), rng.standard_normal((1, 8, 8)))
        path = str(tmp_path / "x.sph")
        write_sph1(path, sig, dtype="f32")
        back = read_sph1(path)
        assert back.values.dtype == np.float32
        np.testing.assert_array_equal(back.values, sig.values.astype(np.float32))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sph"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_sph1(str(path))

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(2)
        sig = SphericalSignal(make_grid(4), rng.standard_normal((1, 8, 8)))
        path = tmp_path / "x.sph"
        write_sph1(str(path), sig)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_sph1(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        sig = SphericalSignal(make_grid(4), rng.standard_normal((1, 8, 8)))
        path = tmp_path / "x.sph"
        write_sph1(str(path), sig)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError):
            read_sph1(str(path))


class TestSpec1:
    def test_real_origin_roundtrip_bit_exact(self, tmp_path):
        """Only m >= 0 is stored; the reader reconstructs negative orders
        through the same conjugation rule the analysis used, so the round
        trip is exact to the bit."""
        c = random_coeffs(8, 2, np.random.default_rng(4))
        path = str(tmp_path / "x.spec")
        write_spec1(path, c)
        back = read_spec1(path)
        np.testing.assert_array_equal(back.coeffs, c.coeffs)

    def test_full_storage_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
        c = SpectralCoeffs(4, raw)
        path = str(tmp_path / "x.spec")
        write_spec1(path, c)
        back = read_spec1(path)
        np.testing.assert_array_equal(back.coeffs, c.coeffs)

    def test_payload_is_half_size_for_real_origin(self, tmp_path):
        c = random_coeffs(8, 1, np.random.default_rng(6))
        half = tmp_path / "half.spec"
        write_spec1(str(half), c)
        full = tmp_path / "full.spec"
        perturbed = c.coeffs.copy()
        perturbed[0, 1] += 1e-3  # the order -1 of degree 1 alone: no longer symmetric
        write_spec1(str(full), SpectralCoeffs(8, perturbed))
        assert half.stat().st_size < full.stat().st_size

    def test_nonsymmetric_roundtrip_is_exact(self, tmp_path):
        """One negative order a single ulp off the mirror forces full storage."""
        c = random_coeffs(8, 2, np.random.default_rng(8)).coeffs
        c[1, 5] = np.nextafter(c[1, 5].real, np.inf) + 1j * c[1, 5].imag
        path = tmp_path / "x.spec"
        write_spec1(str(path), SpectralCoeffs(8, c))
        assert path.read_bytes()[12] == 0
        np.testing.assert_array_equal(read_spec1(str(path)).coeffs, c)

    def test_symmetric_coefficients_use_half_storage(self, tmp_path):
        path = tmp_path / "x.spec"
        write_spec1(str(path), random_coeffs(4, 1, np.random.default_rng(9)))
        assert path.read_bytes()[12] == 1

    def test_half_storage_read_matches_loop(self, tmp_path):
        """The reader's mirrored negative orders equal the per-(l, m) loop's."""
        b, channels = 9, 2
        rng = np.random.default_rng(10)
        half = rng.standard_normal((channels, b * (b + 1) // 2)) * (1 + 1j)
        path = tmp_path / "x.spec"
        path.write_bytes(
            b"SPEC" + struct.pack("<IIB", b, channels, 1) + half.astype("<c16").tobytes()
        )
        want = np.zeros((channels, b * b), dtype=np.complex128)
        k = 0
        for l in range(b):
            for m in range(l + 1):
                want[:, l * l + l + m] = half[:, k]
                k += 1
            for m in range(1, l + 1):
                want[:, l * l + l - m] = (-1) ** m * np.conj(want[:, l * l + l + m])
        np.testing.assert_array_equal(read_spec1(str(path)).coeffs, want)

    def test_unknown_storage_code(self, tmp_path):
        path = tmp_path / "x.spec"
        write_spec1(str(path), random_coeffs(4, 1, np.random.default_rng(11)))
        data = bytearray(path.read_bytes())
        data[12] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="storage"):
            read_spec1(str(path))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, -np.inf)])
    def test_nonfinite_coefficients_rejected(self, tmp_path, bad):
        c = random_coeffs(4, 1, np.random.default_rng(12))
        c.coeffs[0, 5] = bad
        path = tmp_path / "x.spec"
        with pytest.raises(FormatError, match="non-finite"):
            write_spec1(str(path), c)
        assert not path.exists()
        # The reader rejects the same value patched into a valid file.
        write_spec1(str(path), random_coeffs(4, 1, np.random.default_rng(12)))
        data = bytearray(path.read_bytes())
        data[13 + 16 * 3 : 13 + 16 * 4] = np.array([bad], "<c16").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite"):
            read_spec1(str(path))

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            (SpectralCoeffs(1, np.ones((1, 1))), "bandwidth 1 outside"),
            (SpectralCoeffs(4, np.zeros((0, 16))), "0 channels"),
        ],
        ids=["bandwidth-1", "channels-0"],
    )
    def test_writer_refuses_unreadable_header(self, tmp_path, coeffs, message):
        """The writer refuses any header the reader rejects, before the file is opened."""
        path = tmp_path / "x.spec"
        with pytest.raises(FormatError, match=message):
            write_spec1(str(path), coeffs)
        assert not path.exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_bytes(b"SPH1" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_spec1(str(path))


class TestCkpt1:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        tensors = {
            "conv1/filters": rng.standard_normal((4, 2, 3)),
            "conv1/bias": rng.standard_normal(4),
            "head/weight": rng.standard_normal((3, 4)),
        }
        path = str(tmp_path / "m.ckpt")
        write_ckpt1(path, tensors)
        back = read_ckpt1(path)
        assert set(back) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(
                back[name], tensors[name].astype(np.float32).astype(np.float64)
            )

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"CKPTX" + b"\0" * 8)
        with pytest.raises(FormatError):
            read_ckpt1(str(path))

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_ckpt1(str(path), {"w": np.ones(2)})
        data = path.read_bytes()
        path.write_bytes(data[:5] + struct.pack("<I", 2) + data[9:] * 2)
        with pytest.raises(FormatError, match="twice"):
            read_ckpt1(str(path))

    @pytest.mark.parametrize("bad", [1e39, np.inf, np.nan])
    def test_values_not_finite_as_float32_refused(self, tmp_path, bad):
        """1e39 overflows the float32 payload to inf, which the loader
        rejects: the writer refuses it, and NaN and inf, before opening the file."""
        path = tmp_path / "m.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite as float32"):
                write_ckpt1(str(path), {"w": np.ones(2), "b": np.array([1.0, bad])})
        assert not path.exists()

    def test_truncated_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_ckpt1(str(path), {"w": np.ones((2, 2))})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_ckpt1(str(path))
