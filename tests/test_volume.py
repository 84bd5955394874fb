import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mr2ct import DataError, Volume, VolumeFormatError
from mr2ct.volume import load_patient, read_volume, write_volume


def make_volume(dims=(3, 3, 3), spacing=(1.0, 1.0, 1.0), values=None):
    n = dims[0] * dims[1] * dims[2]
    data = np.arange(n, dtype=np.float32) if values is None else values
    return Volume(dims=dims, spacing=spacing, data=data)


class TestVolume:
    def test_flat_order_is_x_fastest(self):
        vol = make_volume()
        grid = vol.grid()  # grid[iz, iy, ix] is data[ix + nx * (iy + ny * iz)]
        assert grid[0, 0, 1] == 1.0
        assert grid[0, 1, 0] == 3.0
        assert grid[1, 0, 0] == 9.0
        assert grid[2, 1, 0] == vol.data[0 + 3 * (1 + 3 * 2)]

    def test_rejects_bad_dims(self):
        with pytest.raises(DataError):
            Volume(dims=(0, 3, 3), spacing=(1, 1, 1), data=np.zeros(0))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(DataError):
            Volume(dims=(2, 2, 2), spacing=(1.0, 0.0, 1.0), data=np.zeros(8))

    def test_rejects_wrong_length(self):
        with pytest.raises(DataError):
            Volume(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros(7))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        data = np.arange(8, dtype=np.float32)
        data[3] = value
        with pytest.raises(DataError, match="non-finite"):
            Volume(dims=(2, 2, 2), spacing=(1, 1, 1), data=data)

    def test_data_immutable(self):
        vol = make_volume()
        with pytest.raises(ValueError):
            vol.data[0] = 5.0


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        vol = make_volume(dims=(4, 3, 2), spacing=(1.5, 2.0, 2.5))
        write_volume(tmp_path / "vol.hdr", vol)
        back = read_volume(tmp_path / "vol.hdr")
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        np.testing.assert_array_equal(back.data, vol.data)

    @settings(max_examples=60, deadline=None)
    @given(vol=st.tuples(*[st.integers(1, 5)] * 3).flatmap(lambda dims: st.builds(
        Volume,
        dims=st.just(dims),
        spacing=st.tuples(*[st.floats(0.0, exclude_min=True, allow_infinity=False)] * 3),
        data=hnp.arrays(np.float32, dims[0] * dims[1] * dims[2], elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)),
    )))
    def test_roundtrip_property(self, tmp_path_factory, vol):
        header, payload = write_volume(tmp_path_factory.getbasetemp() / "prop.hdr", vol)
        back = read_volume(header)
        assert (back.dims, back.spacing) == (vol.dims, vol.spacing)
        assert back.data.tobytes() == vol.data.tobytes()
        entries = dict(line.split(": ", 1) for line in header.read_text().splitlines())
        assert payload == header.parent / entries["data"]

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.hdr"
        path.write_text("dims: 2 2 2\nspacing: 1 1 1\ndtype: float32\n")
        with pytest.raises(VolumeFormatError, match="missing"):
            read_volume(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.hdr"
        path.write_text(
            "dims: 2 2 2\ndims: 2 2 2\nspacing: 1 1 1\ndtype: float32\n"
            "byteorder: little-endian\ndata: bad.raw\n"
        )
        with pytest.raises(VolumeFormatError, match="duplicate"):
            read_volume(path)

    def test_wrong_payload_size(self, tmp_path):
        vol = make_volume(dims=(2, 2, 2))
        write_volume(tmp_path / "vol.hdr", vol)
        (tmp_path / "vol.raw").write_bytes(b"\x00" * 12)
        with pytest.raises(VolumeFormatError, match="payload"):
            read_volume(tmp_path / "vol.hdr")

    def test_wrong_payload_size_is_not_read(self, tmp_path):
        """A sparse payload of the wrong size is rejected from its size alone:
        the traced peak stays far below the file's size."""
        write_volume(tmp_path / "vol.hdr", make_volume(dims=(2, 2, 2)))
        size = 64 << 20
        subprocess.run(["truncate", "-s", str(size), str(tmp_path / "vol.raw")], check=True)
        tracemalloc.start()
        try:
            with pytest.raises(VolumeFormatError, match=f"payload is {size} bytes"):
                read_volume(tmp_path / "vol.hdr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 100

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "bad.hdr"
        path.write_text(
            "dims: 2 2 2\nspacing: 1 1 1\ndtype: float64\n"
            "byteorder: little-endian\ndata: x.raw\n"
        )
        with pytest.raises(VolumeFormatError, match="dtype"):
            read_volume(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, value):
        write_volume(tmp_path / "vol.hdr", make_volume(dims=(2, 2, 2)))
        data = np.arange(8, dtype="<f4")
        data[5] = value
        data.tofile(tmp_path / "vol.raw")
        with pytest.raises(VolumeFormatError, match="non-finite"):
            read_volume(tmp_path / "vol.hdr")

    @pytest.mark.parametrize("name", ["../vol.raw", "sub/vol.raw", "/abs/vol.raw", "..", ""])
    def test_data_entry_must_be_a_bare_name(self, tmp_path, name):
        write_volume(tmp_path / "vol.hdr", make_volume(dims=(2, 2, 2)))
        header = tmp_path / "vol.hdr"
        header.write_text(header.read_text().replace("data: vol.raw", f"data: {name}"))
        with pytest.raises(VolumeFormatError, match="data entry"):
            read_volume(header)


def write_patient(tmp_path, dims=(16, 16, 16), d=4, mask_value=1.0, mr_dims=None):
    rng = np.random.default_rng(0)
    n = dims[0] * dims[1] * dims[2]
    mr_dims = mr_dims or dims
    nm = mr_dims[0] * mr_dims[1] * mr_dims[2]
    for c in range(d):
        write_volume(
            tmp_path / f"mr{c}.hdr",
            Volume(dims=mr_dims, spacing=(1, 1, 1), data=rng.normal(size=nm)),
        )
    write_volume(
        tmp_path / "ct.hdr", Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n))
    )
    write_volume(
        tmp_path / "mask.hdr",
        Volume(dims=dims, spacing=(1, 1, 1), data=np.full(n, mask_value)),
    )
    return [tmp_path / f"mr{c}.hdr" for c in range(d)], tmp_path / "ct.hdr", tmp_path / "mask.hdr"


class TestLoadPatient:
    def test_well_formed(self, tmp_path):
        mr, ct, mask = write_patient(tmp_path)
        patient = load_patient(mr, ct, mask, patient_id="p0")
        assert patient.n_channels == 4
        assert patient.dims == (16, 16, 16)

    def test_dimension_mismatch(self, tmp_path):
        mr, ct, mask = write_patient(tmp_path, dims=(16, 16, 16), mr_dims=(32, 32, 32))
        with pytest.raises(DataError, match="dims"):
            load_patient(mr, ct, mask, patient_id="p0")

    def test_non_binary_mask(self, tmp_path):
        mr, ct, mask = write_patient(tmp_path, mask_value=2.0)
        with pytest.raises(DataError, match="mask"):
            load_patient(mr, ct, mask, patient_id="p0")

    def test_fractional_mask_rejected(self, tmp_path):
        mr, ct, mask = write_patient(tmp_path, mask_value=0.5)
        message = r"patient 'p0': mask must contain exactly 0 or 1, found \[0.5\]"
        with pytest.raises(DataError, match=message):
            load_patient(mr, ct, mask, patient_id="p0")
