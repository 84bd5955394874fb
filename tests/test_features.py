import csv
import io
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import (
    DataError,
    Mr2ctError,
    RunConfig,
    Volume,
    assemble,
    default_phantom_spec,
    export_csv,
    generate_phantom,
    neighbor_offsets,
    train_rusboost,
)
import mr2ct.features
from mr2ct.labeling import DEFAULT_THRESHOLD_HU
from mr2ct.features import FeatureLayout, extract_feature_matrix
from mr2ct.tree import LEAF, DecisionTree
from mr2ct.volume import PatientDataset

from util import materialize, naive_leaf_index, naive_neighbor_matrix

# Hand enumeration for the corner voxel (0,0,0) of a 3x3x3 volume whose value
# at (x,y,z) is x + 3y + 9z, offsets in lexicographic (dz,dy,dx) order with
# replicate clamping.
CORNER_SECOND_ORDER = [
    0, 0, 1, 0, 0, 1, 3, 3, 4,
    0, 0, 1, 0, 1, 3, 3, 4,
    9, 9, 10, 9, 9, 10, 12, 12, 13,
]
CORNER_FIRST_ORDER = [0, 0, 0, 1, 3, 9]


def neighbor_columns(table):
    """The table's (n, d * n_offsets) neighbor intensities."""
    return materialize(table.source)[:, table.layout.n_channels :]


def raw_columns(table):
    """The table's (n, d) raw channel intensities, the mixtures' inputs."""
    return materialize(table.source)[:, : table.layout.n_channels]


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
        assert raw_columns(table).shape == (27, 2)
        assert neighbor_columns(table).shape == (27, 12)

    def test_second_order_width(self):
        table = assemble([toy_patient(d=4)], order="second")
        assert neighbor_columns(table).shape == (27, 4 * 26)

    def test_interior_voxel_first_order(self):
        table = assemble([toy_patient()], order="first")
        center = np.flatnonzero(table.voxel_index == 13)[0]  # voxel (1,1,1)
        np.testing.assert_array_equal(
            neighbor_columns(table)[center], [13 - 9, 13 - 3, 13 - 1, 13 + 1, 13 + 3, 13 + 9]
        )

    def test_corner_replicate_padding_second_order(self):
        table = assemble([toy_patient()], order="second")
        corner = np.flatnonzero(table.voxel_index == 0)[0]
        np.testing.assert_array_equal(neighbor_columns(table)[corner], CORNER_SECOND_ORDER)

    def test_corner_replicate_padding_first_order(self):
        table = assemble([toy_patient()], order="first")
        corner = np.flatnonzero(table.voxel_index == 0)[0]
        np.testing.assert_array_equal(neighbor_columns(table)[corner], CORNER_FIRST_ORDER)

    def test_channel_major_layout(self):
        table = assemble([toy_patient(d=2)], order="first")
        # second channel is first channel + 100 everywhere
        xs = neighbor_columns(table)
        np.testing.assert_array_equal(xs[:, 6:], xs[:, :6] + 100)

    def test_empty_mask_is_an_error(self):
        with pytest.raises(DataError, match="no voxels"):
            assemble([toy_patient(mask=np.zeros(27))], order="first")

    def test_labels_respect_threshold(self):
        table = assemble([toy_patient()], order="first", threshold=100.0)
        np.testing.assert_array_equal(table.t, (table.y > 100.0).astype(np.int8))

    def test_deterministic(self):
        a = assemble([toy_patient(d=2)], order="second")
        b = assemble([toy_patient(d=2)], order="second")
        np.testing.assert_array_equal(neighbor_columns(a), neighbor_columns(b))
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
        xs = neighbor_columns(table)
        nx, ny, nz = dims
        for row in range(len(table)):
            flat = int(table.voxel_index[row])
            ix, iy, iz = flat % nx, (flat // nx) % ny, flat // (nx * ny)
            for k, (dz, dy, dx) in enumerate(offs):
                jx = min(max(ix + dx, 0), nx - 1)
                jy = min(max(iy + dy, 0), ny - 1)
                jz = min(max(iz + dz, 0), nz - 1)
                expected = patient.mr_channels[0].grid()[jz, jy, jx]
                assert xs[row, k] == expected


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
    flat_idx, raw, source = extract_feature_matrix(channels, mask, order)
    np.testing.assert_array_equal(flat_idx, np.flatnonzero(mask.data == 1.0))
    d = n_channels
    expected_x = np.column_stack([vol.data[flat_idx] for vol in channels]).astype(np.float64)
    expected_xs = naive_neighbor_matrix(channels, flat_idx, dims, order)
    expected = np.column_stack([expected_x, expected_xs])
    assert source.shape == expected.shape and source.size == expected.size
    for f in range(expected.shape[1]):
        column = source.column(f, source.base)
        assert column.dtype == np.float32
        assert column.astype(np.float64).tobytes() == expected[:, f].tobytes()
    assert raw.shape == (flat_idx.size, d) and raw.dtype == np.float64
    assert np.ascontiguousarray(raw).tobytes() == expected_x.tobytes()


def random_tree(rng, x, n_splits, between):
    """A random tree over the columns of x, split thresholds drawn from the
    column values.  Split number `between` puts its threshold strictly
    between a column value v and the float32 value just below it, closer to
    v, so a float32 comparison would send v left where float64 sends it right."""
    feature, threshold, left = [LEAF], [np.nan], [LEAF]
    for k in range(n_splits):
        node = int(rng.choice(np.flatnonzero(np.array(feature) == LEAF)))
        f = int(rng.integers(x.shape[1]))
        values = x[:, f] if x.shape[0] else rng.normal(size=1)
        v = np.float32(rng.choice(values))
        thr = float(v)
        if k == between:
            below = float(np.nextafter(v, np.float32(-np.inf)))
            thr = below + 0.75 * (thr - below)
            assert below < thr < float(v) and np.float32(thr) == v
        feature[node], threshold[node], left[node] = f, thr, len(feature)
        feature += [LEAF, LEAF]
        threshold += [np.nan, np.nan]
        left += [LEAF, LEAF]
    confidence = rng.dirichlet(np.ones(2), size=len(feature))
    confidence[np.array(feature) != LEAF] = np.nan
    return DecisionTree(
        feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32), confidence=confidence,
        n_features=x.shape[1], n_labels=2,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).filter(
        lambda dims: len(set(dims)) == 3
    ),
    n_channels=st.integers(1, 3),
    order=st.sampled_from(["first", "second"]),
    density=st.floats(0.0, 1.0),
    n_splits=st.integers(1, 12),
)
def test_pad_routing_matches_matrix_oracle(seed, dims, n_channels, order, density, n_splits):
    """Routing the padded source gives the leaves of routing the materialized
    matrix, and of the level-synchronous oracle on it."""
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    channels = tuple(
        Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)) for _ in range(n_channels)
    )
    mask = Volume(dims=dims, spacing=(1, 1, 1), data=(rng.random(n) < density).astype(float))
    flat_idx, raw, source = extract_feature_matrix(channels, mask, order)
    x = np.column_stack([raw, naive_neighbor_matrix(channels, flat_idx, dims, order)])
    tree = random_tree(rng, x, n_splits, between=int(rng.integers(n_splits)))
    expected = naive_leaf_index(tree, x)
    np.testing.assert_array_equal(tree.leaf_index(x), expected)
    np.testing.assert_array_equal(tree.leaf_index(source), expected)


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
        flat_idx, raw, source = extract_feature_matrix(a.mr_channels, a.mask, "first")
        assert table.source.shape == source.shape
        np.testing.assert_array_equal(materialize(table.source), materialize(source))
        np.testing.assert_array_equal(raw_columns(table), raw)
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

        def column(table, name):
            return raw_columns(table) if name == "x" else getattr(table, name)

        for name in ("voxel_index", "x", "y", "t"):
            joined = np.concatenate([column(t, name) for t in separate])
            assert column(both, name).dtype == joined.dtype
            np.testing.assert_array_equal(column(both, name), joined)
        assert both.patient_ids == tuple(p.patient_id for p in patients)
        features = materialize(both.source)
        for i, solo in enumerate(separate):
            lo, hi = both.starts[i], both.starts[i + 1]
            np.testing.assert_array_equal(features[lo:hi], materialize(solo.source))
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

    def test_peak_memory_of_training_has_no_feature_matrix(self):
        """assemble and one boosting round together stay below the float64
        feature matrix of the cohort: training reads the padded channels.

        The tree's histogram keys, int64 per feature and resampled row, take
        most of the rest; later rounds resample more rows."""
        cohort = generate_phantom(default_phantom_spec(dims=(16, 16, 16)), n_patients=3, seed=3)
        patients = [item.dataset for item in cohort]
        tracemalloc.start()
        try:
            table = assemble(patients, order="second")
            train_rusboost(table.source, table.t, RunConfig(trees=1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(table) * table.layout.n_combined * 8


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_patients=st.integers(2, 3),
    order=st.sampled_from(["first", "second"]),
)
def test_cohort_source_matches_matrix_oracle(seed, n_patients, order):
    """A cohort of mixed dims trains the ensemble that its materialized
    matrix trains, and exports the rows of the clamp oracle."""
    rng = np.random.default_rng(seed)
    patients, oracle = [], io.StringIO()
    for i in range(n_patients):
        dims = tuple(int(n) for n in rng.integers(1, 7, size=3))
        n = dims[0] * dims[1] * dims[2]
        mask = (rng.random(n) < rng.uniform(0.3, 1.0)).astype(float)
        mask[rng.integers(n)] = 1.0
        channels = tuple(
            Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(size=n)) for _ in range(2)
        )
        ct = Volume(dims=dims, spacing=(1, 1, 1), data=rng.normal(100.0, 300.0, size=n))
        patients.append(PatientDataset(
            patient_id=f"p{i}", mr_channels=channels, ct=ct,
            mask=Volume(dims=dims, spacing=(1, 1, 1), data=mask),
        ))
        flat_idx = np.flatnonzero(mask)
        raw = np.column_stack([vol.data[flat_idx] for vol in channels]).astype(np.float64)
        features = np.column_stack([raw, naive_neighbor_matrix(channels, flat_idx, dims, order)])
        y = ct.data[flat_idx].astype(np.float64)
        for j in range(flat_idx.size):
            csv.writer(oracle).writerow(
                [f"p{i}", int(flat_idx[j])] + [repr(v) for v in features[j].tolist()]
                + [repr(float(y[j])), int(y[j] > DEFAULT_THRESHOLD_HU)]
            )
    table = assemble(patients, order=order)

    labels = rng.integers(0, 2, size=len(table))
    labels[:2] = (0, 1)
    config = RunConfig(trees=3, max_splits=8, min_leaf=1)

    def outcome(x):
        try:
            return train_rusboost(x, labels, config, seed=seed).to_dict()
        except Mr2ctError as exc:
            return repr(exc)

    assert outcome(table.source) == outcome(materialize(table.source))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        export_csv(table, path)
        header = ",".join(table.column_names()) + "\r\n"
        assert path.read_bytes().decode() == header + oracle.getvalue()


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
        assert float(first[2]) == raw_columns(table)[0, 0]


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
