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
