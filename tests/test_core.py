"""Domain types and bit-exact file I/O."""

import io
import struct
import warnings

import numpy as np
import pytest

from lidarood.core import (
    ClassSpec, ContractError, FormatError, LabelMap, PointCloud, Role, ScoreField,
    format_record, load_labels, load_point_cloud, load_scores, parse_record, read_header,
    roles_from_semantic, save_labels, save_point_cloud, save_scores, write_header,
)


@pytest.fixture
def spec():
    return ClassSpec(inlier_classes=(1, 2, 3, 4), void_id=0, ood_id=200, ignore_id=250)


class TestPointCloudIO:
    def test_two_point_decoding(self, tmp_path):
        raw = np.array([1, 2, 3, 0.5, 4, 5, 6, 0.0], dtype="<f4")
        path = tmp_path / "two.bin"
        raw.tofile(path)
        cloud = load_point_cloud(path)
        assert cloud.count == 2
        np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(cloud.intensity, [0.5, 0.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert load_point_cloud(path).count == 0

    def test_malformed_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 18)
        with pytest.raises(FormatError):
            load_point_cloud(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(
            points=rng.normal(scale=30, size=(1000, 3)).astype(np.float32),
            intensity=rng.random(1000).astype(np.float32),
        )
        path = tmp_path / "rt.bin"
        save_point_cloud(cloud, path)
        first = path.read_bytes()
        loaded = load_point_cloud(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        np.testing.assert_array_equal(loaded.intensity, cloud.intensity)
        save_point_cloud(loaded, path)
        assert path.read_bytes() == first

    def test_hex_layout(self, tmp_path):
        # hand-assembled little-endian layout of a 2-point file
        import struct
        expected = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, -1.0, 0.0, 0.25, 1.0)
        cloud = PointCloud(points=[[1, 2, 3], [-1, 0, 0.25]], intensity=[0.5, 1.0])
        path = tmp_path / "hex.bin"
        save_point_cloud(cloud, path)
        assert path.read_bytes() == expected

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            PointCloud(points=[[np.nan, 0, 0]])

    def test_beyond_float32_rejected_without_warning(self):
        """A finite float64 coordinate past float32's range is refused with
        ContractError, not an overflow warning from narrowing it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (1e39, -1e39, 1e308):
                with pytest.raises(ContractError):
                    PointCloud(points=[[0, 0, 0], [0, bad, 0]])

    def test_in_range_points_narrow_as_a_float32_cast(self):
        points = np.random.default_rng(4).normal(size=(200, 3)) * [1e-30, 1.0, 1e30]
        cloud = PointCloud(points=points)
        assert cloud.points.dtype == np.float32
        assert cloud.points.tobytes() == points.astype(np.float32).tobytes()

    def test_intensity_length_mismatch(self):
        with pytest.raises(ContractError):
            PointCloud(points=[[0, 0, 0]], intensity=[0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 2.5, 1e39],
                             ids=["nan", "inf", "negative", "above-1", "beyond-float32"])
    def test_intensity_outside_unit_interval_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="intensity"):
                PointCloud(points=[[0, 0, 0], [1, 1, 1]], intensity=[0.5, bad])

    @pytest.mark.parametrize("bad", [np.nan, 2.5], ids=["nan", "above-1"])
    def test_load_rejects_intensity_outside_unit_interval(self, tmp_path, bad):
        path = tmp_path / "bad.bin"
        np.array([1, 2, 3, 0.5, 4, 5, 6, bad], dtype="<f4").tofile(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="intensity"):
                load_point_cloud(path)

    def test_intensity_bounds_inclusive(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 1, 1]], intensity=[0.0, 1.0])
        assert cloud.intensity.dtype == np.float32
        np.testing.assert_array_equal(cloud.intensity, [0.0, 1.0])


class TestLabelIO:
    def test_bit_split(self, tmp_path, spec):
        path = tmp_path / "one.label"
        np.array([0x00010009], dtype="<u4").tofile(path)
        # 9 is unknown under the spec and degrades to void, so use a raw check
        words = np.fromfile(path, dtype="<u4")
        assert (words & 0xFFFF)[0] == 9
        assert (words >> 16)[0] == 1

    def test_void_role(self, tmp_path, spec):
        path = tmp_path / "void.label"
        np.array([spec.void_id], dtype="<u4").tofile(path)
        labels = load_labels(path, spec)
        assert labels.role[0] == Role.VOID

    def test_unknown_id_degrades_to_void(self, tmp_path, spec):
        path = tmp_path / "unk.label"
        np.array([9999], dtype="<u4").tofile(path)
        labels = load_labels(path, spec)
        assert labels.semantic[0] == spec.void_id
        assert labels.role[0] == Role.VOID

    def test_roundtrip_bit_exact(self, tmp_path, spec):
        rng = np.random.default_rng(1)
        known = np.array(list(spec.inlier_classes) + [spec.void_id, spec.ood_id, spec.ignore_id])
        sem = rng.choice(known, size=500)
        inst = rng.integers(0, 2**16, size=500)
        labels = LabelMap(semantic=sem, instance=inst, role=roles_from_semantic(sem, spec))
        path = tmp_path / "rt.label"
        save_labels(labels, path)
        first = path.read_bytes()
        loaded = load_labels(path, spec)
        np.testing.assert_array_equal(loaded.semantic, labels.semantic)
        np.testing.assert_array_equal(loaded.instance, labels.instance)
        np.testing.assert_array_equal(loaded.role, labels.role)
        save_labels(loaded, path)
        assert path.read_bytes() == first

    def test_malformed_size(self, tmp_path, spec):
        path = tmp_path / "bad.label"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(FormatError):
            load_labels(path, spec)


class TestScoreIO:
    def test_length_is_4m_bytes(self, tmp_path):
        scores = ScoreField(scores=np.linspace(-1, 1, 37, dtype=np.float32))
        path = tmp_path / "s.score"
        save_scores(scores, path)
        assert path.stat().st_size == 4 * 37

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = ScoreField(scores=rng.normal(size=64).astype(np.float32))
        path = tmp_path / "rt.score"
        save_scores(scores, path)
        loaded = load_scores(path)
        np.testing.assert_array_equal(loaded.scores, scores.scores)

    def test_float32_overflow_rejected_before_writing(self, tmp_path):
        path = tmp_path / "big.score"
        with pytest.raises(ContractError):
            save_scores(ScoreField(scores=[1.0, 1e39]), path)
        assert not path.exists()

    @pytest.mark.parametrize("word", [0x7FC00000, 0x7F800001, 0xFF800000],
                             ids=["quiet-nan", "signaling-nan", "minus-inf"])
    def test_non_finite_payload_rejected_without_warning(self, tmp_path, word):
        path = tmp_path / "bad.score"
        np.array([0, word], dtype="<u4").tofile(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="finite"):
                load_scores(path)


class TestRoles:
    def test_role_assignment_deterministic(self, spec):
        rng = np.random.default_rng(3)
        sem = rng.choice([0, 1, 2, 3, 4, 200, 250], size=200)
        r1 = roles_from_semantic(sem, spec)
        r2 = roles_from_semantic(sem, spec)
        np.testing.assert_array_equal(r1, r2)

    def test_role_values(self, spec):
        sem = np.array([1, 0, 200, 250])
        roles = roles_from_semantic(sem, spec)
        assert list(roles) == [Role.INLIER, Role.VOID, Role.REAL_OOD, Role.IGNORE]


class TestClassSpec:
    def test_disjointness_enforced(self):
        with pytest.raises(ContractError):
            ClassSpec(inlier_classes=(1, 2), void_id=1, ood_id=3, ignore_id=4)

    def test_minimum_classes(self):
        with pytest.raises(ContractError):
            ClassSpec(inlier_classes=(1,), void_id=0, ood_id=3, ignore_id=4)

    def test_logit_width(self, spec):
        assert spec.logit_width == 4
        ext = ClassSpec(inlier_classes=(1, 2, 3, 4), void_id=0, ood_id=200,
                        ignore_id=250, extended=True)
        assert ext.logit_width == 8


class TestRecord:
    def test_lines_sorted_by_key(self):
        assert format_record({"b": 1, "a.x": 0.1, "a": "on"}) == "a = on\na.x = 0.1\nb = 1\n"
        assert format_record({}) == "\n"

    def test_numpy_scalars_written_like_python_numbers(self):
        text = format_record({"x": np.float64(0.1), "y": np.float32(0.25), "n": np.int64(3)})
        assert text == "n = 3\nx = 0.1\ny = 0.25\n"

    def test_parse_rules(self):
        text = "# note = skipped\n\n  a =  1 = 2 \nb=\r\nc.d = x\n"
        assert parse_record(text) == {"a": "1 = 2", "b": "", "c.d": "x"}

    def test_roundtrip(self):
        entries = {"gamma": 0.1 + 0.2, "source": "tpr=0.95", "n": 7}
        assert parse_record(format_record(entries)) == {k: str(v) for k, v in entries.items()}
        assert parse_record(format_record({})) == {}

    def test_line_without_separator_rejected(self):
        with pytest.raises(ContractError, match="^malformed config line 'no separator'$"):
            parse_record("a = 1\n no separator\n")


class TestHeader:
    def test_bytes_and_roundtrip(self):
        fh = io.BytesIO()
        write_header(fh, b"TEST", 3, 5)
        assert fh.getvalue() == b"TEST" + struct.pack("<III", 1, 3, 5)
        fh.seek(0)
        assert read_header(fh, b"TEST") == (3, 5)
        assert fh.read() == b""

    def test_bad_magic(self):
        with pytest.raises(ContractError, match="^bad checkpoint magic b'JUNK'$"):
            read_header(io.BytesIO(b"JUNK" + struct.pack("<III", 1, 3, 5)), b"TEST")

    def test_unsupported_version(self):
        with pytest.raises(ContractError, match="^unsupported checkpoint version 2$"):
            read_header(io.BytesIO(b"TEST" + struct.pack("<III", 2, 3, 5)), b"TEST")

    def test_truncated(self):
        with pytest.raises(FormatError):
            read_header(io.BytesIO(b"TEST" + bytes(11)), b"TEST")
