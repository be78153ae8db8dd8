"""Binary container formats: SPH1 (signals), SPEC1 (spectra), CKPT1 (checkpoints).

All integers and floats are little-endian.

SPH1:  magic ``SPH1`` | u32 bandwidth | u32 channels | u8 dtype (0=f32, 1=f64)
       | payload: channel-major, then colatitude row, then longitude column.

SPEC1: magic ``SPEC`` | u32 bandwidth | u32 channels | u8 storage
       | packed complex float64 pairs in (l, m) lexicographic order, with m
       running -l..l (storage 0), or 0..l (storage 1: only m >= 0, written
       whenever the coefficients are exactly conjugate-symmetric; the reader
       mirrors the negative orders back through ``sft.mirror_negative``, so
       every round trip is bit-exact).

CKPT1: magic ``CKPT1`` | u32 tensor count | per tensor: u16 name length,
       utf-8 name, u8 rank, u32 dims, float32 payload.

Readers reject wrong magic bytes, bandwidths outside the grid's range, zero
channel counts, unknown dtype or storage codes, repeated tensor names and
truncated payloads; declared sizes are checked against the bytes left in the
file before anything is read or allocated.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError
from .grid import DEFAULT_MAX_BANDWIDTH, make_grid
from .sft import SpectralCoeffs, SphericalSignal, half_index, mirror_negative

_SPH_MAGIC = b"SPH1"
_SPEC_MAGIC = b"SPEC"
_CKPT_MAGIC = b"CKPT1"


def _read_exact(fh, n: int, what: str) -> bytes:
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError(f"truncated file while reading {what}")
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _check_header(path: str, b: int, channels: int) -> None:
    if not 2 <= b <= DEFAULT_MAX_BANDWIDTH:
        raise FormatError(f"{path}: bandwidth {b} outside [2, {DEFAULT_MAX_BANDWIDTH}]")
    if channels == 0:
        raise FormatError(f"{path}: header declares 0 channels")


def write_sph1(path: str, signal: SphericalSignal, dtype: str = "f64") -> None:
    if dtype not in ("f32", "f64"):
        raise ValueError(f"dtype must be f32 or f64, got {dtype}")
    code = 0 if dtype == "f32" else 1
    np_dtype = "<f4" if dtype == "f32" else "<f8"
    with open(path, "wb") as fh:
        fh.write(_SPH_MAGIC)
        fh.write(struct.pack("<IIB", signal.bandwidth, signal.channels, code))
        fh.write(np.ascontiguousarray(signal.values, dtype=np_dtype).tobytes())


def read_sph1(path: str) -> SphericalSignal:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _SPH_MAGIC:
            raise FormatError(f"{path}: not an SPH1 file")
        b, channels, code = struct.unpack("<IIB", _read_exact(fh, 9, "header"))
        _check_header(path, b, channels)
        if code not in (0, 1):
            raise FormatError(f"{path}: unknown dtype code {code}")
        np_dtype = "<f4" if code == 0 else "<f8"
        itemsize = 4 if code == 0 else 8
        n = 2 * b
        payload = _read_exact(fh, channels * n * n * itemsize, "payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    values = np.frombuffer(payload, dtype=np_dtype).reshape(channels, n, n)
    return SphericalSignal(make_grid(b), values.astype(np_dtype[1:], copy=True))


def write_spec1(path: str, coeffs: SpectralCoeffs) -> None:
    b, c = coeffs.bandwidth, coeffs.coeffs
    half = mirror_negative(c.copy()).tobytes() == c.tobytes()
    with open(path, "wb") as fh:
        fh.write(_SPEC_MAGIC)
        fh.write(struct.pack("<IIB", b, coeffs.channels, int(half)))
        data = c[:, half_index(b)] if half else c
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_spec1(path: str) -> SpectralCoeffs:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _SPEC_MAGIC:
            raise FormatError(f"{path}: not a SPEC1 file")
        b, channels, half = struct.unpack("<IIB", _read_exact(fh, 9, "header"))
        _check_header(path, b, channels)
        if half not in (0, 1):
            raise FormatError(f"{path}: unknown storage code {half}")
        count = (b * (b + 1)) // 2 if half else b * b
        payload = _read_exact(fh, channels * count * 16, "payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<c16").reshape(channels, count)
    if not half:
        return SpectralCoeffs(b, data.copy())
    full = np.zeros((channels, b * b), dtype=np.complex128)
    full[:, half_index(b)] = data
    return SpectralCoeffs(b, mirror_negative(full))


def write_ckpt1(path: str, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            blob = name.encode("utf-8")
            arr = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_ckpt1(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if _read_exact(fh, 5, "magic") != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a CKPT1 file")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "count"))
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, nlen, "name").decode("utf-8")
            if name in out:
                raise FormatError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, "rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "shape"))
            size = math.prod(shape)
            data = _read_exact(fh, 4 * size, f"tensor {name}")
            out[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return out
