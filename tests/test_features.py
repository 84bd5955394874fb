import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import DataError, Volume, assemble, export_csv, neighbor_offsets
import mr2ct.features
from mr2ct.features import FeatureLayout, extract_feature_matrix
from mr2ct.volume import PatientDataset

from util import naive_neighbor_matrix

# Hand enumeration for the corner voxel (0,0,0) of a 3x3x3 volume whose value
# at (x,y,z) is x + 3y + 9z, offsets in lexicographic (dz,dy,dx) order with
# replicate clamping.
CORNER_SECOND_ORDER = [
    0, 0, 1, 0, 0, 1, 3, 3, 4,
    0, 0, 1, 0, 1, 3, 3, 4,
    9, 9, 10, 9, 9, 10, 12, 12, 13,
]
CORNER_FIRST_ORDER = [0, 0, 0, 1, 3, 9]


def toy_patient(d=1, mask=None, dims=(3, 3, 3)):
    n = dims[0] * dims[1] * dims[2]
    channels = tuple(
        Volume(dims=dims, spacing=(1, 1, 1), data=np.arange(n) + 100 * c)
        for c in range(d)
    )
    ct = Volume(dims=dims, spacing=(1, 1, 1), data=np.linspace(-200, 400, n))
    mask_data = np.ones(n) if mask is None else mask
    return PatientDataset(
        patient_id="toy",
        mr_channels=channels,
        ct=ct,
        mask=Volume(dims=dims, spacing=(1, 1, 1), data=mask_data),
    )


class TestOffsets:
    def test_first_order_offsets(self):
        offs = neighbor_offsets("first")
        assert len(offs) == 6
        assert set(offs) == {
            (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)
        }

    def test_second_order_offsets(self):
        offs = neighbor_offsets("second")
        assert len(offs) == 26
        assert (0, 0, 0) not in offs
        assert list(offs) == sorted(offs)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            neighbor_offsets("third")


class TestExtraction:
    def test_row_per_masked_voxel(self):
        table = assemble([toy_patient(d=2)], order="first")
        assert len(table) == 27
        assert table.x.shape == (27, 2)
        assert table.xs.shape == (27, 12)

    def test_second_order_width(self):
        table = assemble([toy_patient(d=4)], order="second")
        assert table.xs.shape == (27, 4 * 26)

    def test_interior_voxel_first_order(self):
        table = assemble([toy_patient()], order="first")
        center = np.flatnonzero(table.voxel_index == 13)[0]  # voxel (1,1,1)
        np.testing.assert_array_equal(
            table.xs[center], [13 - 9, 13 - 3, 13 - 1, 13 + 1, 13 + 3, 13 + 9]
        )

    def test_corner_replicate_padding_second_order(self):
        table = assemble([toy_patient()], order="second")
        corner = np.flatnonzero(table.voxel_index == 0)[0]
        np.testing.assert_array_equal(table.xs[corner], CORNER_SECOND_ORDER)

    def test_corner_replicate_padding_first_order(self):
        table = assemble([toy_patient()], order="first")
        corner = np.flatnonzero(table.voxel_index == 0)[0]
        np.testing.assert_array_equal(table.xs[corner], CORNER_FIRST_ORDER)

    def test_channel_major_layout(self):
        table = assemble([toy_patient(d=2)], order="first")
        # second channel is first channel + 100 everywhere
        np.testing.assert_array_equal(table.xs[:, 6:], table.xs[:, :6] + 100)

    def test_empty_mask_is_an_error(self):
        with pytest.raises(DataError, match="no voxels"):
            assemble([toy_patient(mask=np.zeros(27))], order="first")

    def test_labels_respect_threshold(self):
        table = assemble([toy_patient()], order="first", threshold=100.0)
        np.testing.assert_array_equal(table.t, (table.y > 100.0).astype(np.int8))

    def test_deterministic(self):
        a = assemble([toy_patient(d=2)], order="second")
        b = assemble([toy_patient(d=2)], order="second")
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.voxel_index, b.voxel_index)

    def test_rows_follow_voxel_index_order(self):
        rng = np.random.default_rng(6)
        mask = (rng.random(27) < 0.5).astype(float)
        mask[0] = 1.0
        table = assemble([toy_patient(mask=mask)], order="first")
        assert np.all(np.diff(table.voxel_index) > 0)

    def test_reread_property(self):
        """Re-reading the source volume at voxel_index + clamped offset
        reproduces every x_s entry."""
        rng = np.random.default_rng(5)
        dims = (4, 5, 3)
        n = dims[0] * dims[1] * dims[2]
        patient = PatientDataset(
            patient_id="rnd",
            mr_channels=(Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)),),
            ct=Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)),
            mask=Volume(dims=dims, spacing=(1, 1, 1),
                        data=(rng.random(n) < 0.6).astype(float)),
        )
        table = assemble([patient], order="second")
        offs = neighbor_offsets("second")
        nx, ny, nz = dims
        for row in range(len(table)):
            flat = int(table.voxel_index[row])
            ix, iy, iz = flat % nx, (flat // nx) % ny, flat // (nx * ny)
            for k, (dz, dy, dx) in enumerate(offs):
                jx = min(max(ix + dx, 0), nx - 1)
                jy = min(max(iy + dy, 0), ny - 1)
                jz = min(max(iz + dz, 0), nz - 1)
                expected = patient.mr_channels[0].grid()[jz, jy, jx]
                assert table.xs[row, k] == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    n_channels=st.integers(1, 3),
    order=st.sampled_from(["first", "second"]),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_extraction_matches_clamp_oracle(seed, dims, n_channels, order, density):
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    channels = tuple(
        Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)) for _ in range(n_channels)
    )
    mask = Volume(dims=dims, spacing=(1, 1, 1), data=(rng.random(n) < density).astype(float))
    flat_idx, raw, features = extract_feature_matrix(channels, mask, order)
    np.testing.assert_array_equal(flat_idx, np.flatnonzero(mask.data == 1.0))
    d = n_channels
    expected_x = np.column_stack([vol.data[flat_idx] for vol in channels]).astype(np.float64)
    expected_xs = naive_neighbor_matrix(channels, flat_idx, dims, order)
    assert features.shape == (flat_idx.size, d + expected_xs.shape[1])
    assert np.ascontiguousarray(features[:, :d]).tobytes() == expected_x.tobytes()
    assert np.ascontiguousarray(features[:, d:]).tobytes() == expected_xs.tobytes()
    # Routing reads one contiguous column per split; a row-major matrix
    # would cost a full copy per prediction.
    assert features.flags.f_contiguous
    # raw is a view of the raw columns, not a second copy of them.
    assert raw.shape == (flat_idx.size, d) and raw.base is features
    np.testing.assert_array_equal(raw, features[:, :d])


class TestAssemble:
    def patient(self, pid, n_masked, dims=(3, 3, 3), d=2, seed=0):
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1] * dims[2]
        mask = np.zeros(n)
        mask[rng.choice(n, size=n_masked, replace=False)] = 1.0
        channels = tuple(
            Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n))
            for _ in range(d)
        )
        return PatientDataset(
            patient_id=pid,
            mr_channels=channels,
            ct=Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)),
            mask=Volume(dims=dims, spacing=(1, 1, 1), data=mask),
        )

    @staticmethod
    def spy_extraction(monkeypatch):
        """Record the calls assemble makes through the module global, the
        name the benchmark's tracer wraps."""
        calls = []
        extract = mr2ct.features.extract_feature_matrix

        def spy(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(mr2ct.features, "extract_feature_matrix", spy)
        return calls

    def test_row_counts_add(self):
        a = self.patient("a", 10, seed=1)
        b = self.patient("b", 15, seed=2)
        table = assemble([a, b], order="first")
        assert len(table) == 25
        assert table.patient_ids == ("a", "b")
        assert table.starts.tolist() == [0, 10, 25] and table.starts.dtype == np.int64

    def test_single_patient_identity(self):
        a = self.patient("a", 12, seed=3)
        table = assemble([a], order="first")
        flat_idx, _, features = extract_feature_matrix(a.mr_channels, a.mask, "first")
        np.testing.assert_array_equal(table.features, features)
        np.testing.assert_array_equal(table.voxel_index, flat_idx)
        np.testing.assert_array_equal(table.y, a.ct.data[flat_idx].astype(np.float64))
        assert table.patient_ids == ("a",) and table.starts.tolist() == [0, 12]

    def test_channel_count_mismatch(self, monkeypatch):
        a = self.patient("a", 5, d=2, seed=4)
        b = self.patient("b", 5, d=3, seed=5)
        calls = self.spy_extraction(monkeypatch)
        with pytest.raises(DataError, match="channel"):
            assemble([a, b], order="first")
        assert calls == []  # checked before anything is extracted

    def test_empty_mask_names_patient_before_extraction(self, monkeypatch):
        a = self.patient("a", 5, seed=4)
        b = self.patient("b", 0, seed=5)
        calls = self.spy_extraction(monkeypatch)
        with pytest.raises(DataError, match="patient 'b': mask selects no voxels"):
            assemble([a, b], order="first")
        assert calls == []

    def test_empty_list(self):
        with pytest.raises(DataError):
            assemble([], order="first")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_patients=st.integers(1, 3),
        order=st.sampled_from(["first", "second"]),
    )
    def test_concatenation_multiset(self, seed, n_patients, order):
        rng = np.random.default_rng(seed)
        patients = []
        for i in range(n_patients):
            dims = tuple(int(n) for n in rng.integers(1, 6, size=3))
            n_masked = int(rng.integers(1, dims[0] * dims[1] * dims[2] + 1))
            seed_i = int(rng.integers(1000))
            patients.append(self.patient(f"p{i}", n_masked, dims=dims, seed=seed_i))
        both = assemble(patients, order=order)
        separate = [assemble([p], order=order) for p in patients]
        for name in ("voxel_index", "features", "y", "t"):
            joined = np.concatenate([getattr(t, name) for t in separate])
            assert getattr(both, name).dtype == joined.dtype
            np.testing.assert_array_equal(getattr(both, name), joined)
        assert both.features.flags.f_contiguous
        assert both.patient_ids == tuple(p.patient_id for p in patients)
        for i, solo in enumerate(separate):
            lo, hi = both.starts[i], both.starts[i + 1]
            np.testing.assert_array_equal(both.features[lo:hi], solo.features)
        assert both.starts[0] == 0 and both.starts[-1] == len(both)

    def test_one_extraction_per_patient(self, monkeypatch):
        patients = [self.patient(pid, 6 + i, seed=10 + i) for i, pid in enumerate("abc")]
        calls = self.spy_extraction(monkeypatch)
        table = assemble(patients, order="first")
        assert len(calls) == 3 and all(args[1] is p.mask for args, p in zip(calls, patients))
        assert len(table) == 6 + 7 + 8

    def test_csv_names_each_rows_patient(self, tmp_path):
        a, b = self.patient("a", 4, seed=1), self.patient("b", 3, seed=2)
        path = tmp_path / "table.csv"
        export_csv(assemble([a, b], order="first"), path)
        rows = path.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a"] * 4 + ["b"] * 3

    def test_peak_memory_holds_one_patient_matrix(self):
        """The table is allocated once and filled patient by patient, so at
        most one patient's extracted matrix exists next to it."""
        patients = [
            self.patient(pid, n_masked, dims=(16, 16, 16), seed=20 + n_masked)
            for pid, n_masked in (("a", 4096), ("b", 2900), ("c", 1700))
        ]
        tracemalloc.start()
        try:
            table = assemble(patients, order="second")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = sum(a.nbytes for a in (table.voxel_index, table.features, table.y, table.t))
        largest = 4096 * table.layout.n_combined * 8
        assert peak <= table_bytes + largest + 2**20


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path):
        table = assemble([toy_patient(d=2)], order="first")
        path = tmp_path / "table.csv"
        export_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(table)
        header = lines[0].split(",")
        assert header[:2] == ["patient_id", "voxel_index"]
        assert header[-2:] == ["y", "t"]
        assert len(header) == 2 + 2 + 12 + 2

    def test_values_roundtrip(self, tmp_path):
        table = assemble([toy_patient(d=1)], order="first")
        path = tmp_path / "table.csv"
        export_csv(table, path)
        lines = path.read_text().strip().splitlines()
        first = lines[1].split(",")
        assert first[0] == "toy"
        assert float(first[2]) == table.x[0, 0]


class TestLayout:
    def test_roundtrip(self):
        layout = FeatureLayout(n_channels=4, order="second")
        back = FeatureLayout(**asdict(layout))
        assert back == layout
        assert back.n_combined == 4 + 4 * 26

    def test_names_are_unique(self):
        table = assemble([toy_patient(d=3)], order="first")
        names = table.column_names()
        assert len(names) == len(set(names)) == 2 + 3 + 18 + 2
        assert names[2:6] == ["x0", "x1", "x2", "xs0_o0"]
