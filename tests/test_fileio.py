import pytest

from gazedet import fileio


class TestNonFiniteJson:
    """A NaN or an infinity in a JSON output is refused with the file, where
    in the payload it sits and its value, and nothing is written."""

    @pytest.mark.parametrize("obj, needle", [
        ({"classes": [{"ap": float("nan")}]}, "classes[0].ap is nan"),
        ({"a": {"b": 1.0, "c": float("inf")}}, "a.c is inf"),
        ([1.0, [2.0, float("-inf")]], "[1][1] is -inf"),
        ([{"score": 0.5}, {"score": float("nan")}], "[1].score is nan"),
        ({"box": (0.0, float("inf"))}, "box[1] is inf"),
        (float("-inf"), "the value is -inf"),
    ], ids=["dict_list_dict_nan", "nested_dict_inf", "nested_list_neg_inf", "list_of_dicts_nan",
            "tuple_inf", "top_level"])
    def test_refusal_names_field_and_value(self, tmp_path, obj, needle):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError) as info:
            fileio.write_json(str(path), obj)
        assert str(info.value) == f"{path}: {needle}, not a finite number"
        assert list(tmp_path.iterdir()) == []

    def test_finite_payload_unchanged(self):
        obj = {"b": [1.5, {"c": -2.0}], "a": 3}
        text = fileio.json_text("p.json", obj, sort_keys=True)
        assert text == '{"a": 3, "b": [1.5, {"c": -2.0}]}\n'


class TestAtomicWriteFailure:
    """A write that fails part way leaves neither the new file nor its
    `.tmp`, and an existing file keeps its old bytes."""

    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["new_file", "existing_file"])
    def test_bad_second_chunk(self, tmp_path, old):
        path = tmp_path / "x.bin"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(TypeError):
            fileio.atomic_write_bytes(str(path), b"head", None)
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["x.bin"])
        if old is not None:
            assert path.read_bytes() == old

    def test_interrupt_before_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        path.write_bytes(b"old bytes")
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(fileio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fileio.atomic_write_bytes(str(path), b"head", b"body")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
        assert path.read_bytes() == b"old bytes"


class TestRepeatedJsonKey:
    """`read_json` refuses a key repeated within one object, at any depth,
    naming the file and the key, where `json.load` keeps the last value."""

    @pytest.mark.parametrize("text, key", [
        ('{"cx": 1, "cx": 2}', "'cx'"),
        ('[{"a": 1}, {"b": {"c": 1, "d": 2, "c": 3}}]', "'c'"),
        ('{"x": 1, "y": 2, "y": 2, "x": 3}', "'x'"),
    ], ids=["top_level", "nested", "earliest_key_named"])
    def test_refused(self, tmp_path, text, key):
        path = tmp_path / "in.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            fileio.read_json(str(path))
        assert str(info.value) == f"{path}: key {key} repeats in one object"

    def test_same_key_in_sibling_objects_is_fine(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('[{"cx": 1}, {"cx": 2, "cy": {"cx": 3}}]')
        assert fileio.read_json(str(path)) == [{"cx": 1}, {"cx": 2, "cy": {"cx": 3}}]
