"""Domain types and bit-exact binary I/O."""

import warnings

import numpy as np
import pytest

from lidarood.core import (
    ClassSpec, ContractError, FormatError, LabelMap, PointCloud, Role, ScoreField,
    load_labels, load_point_cloud, load_scores, roles_from_semantic,
    save_labels, save_point_cloud, save_scores,
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

    def test_intensity_length_mismatch(self):
        with pytest.raises(ContractError):
            PointCloud(points=[[0, 0, 0]], intensity=[0.5, 0.5])


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

    def test_ood_role_override(self, spec):
        roles = roles_from_semantic(np.array([200]), spec, ood_role=Role.AUX_OOD)
        assert roles[0] == Role.AUX_OOD


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
