"""Unit tests for the artifact encoder and ExperimentResult I/O."""

import dataclasses

import numpy as np
import pytest

from repro.channel.occlusion import Material
from repro.core.carrier_select import CarrierEstimate
from repro.core.identification import AccuracyReport
from repro.core.overlay import Mode
from repro.experiments.artifacts import (
    ARTIFACT_TAG,
    ArtifactError,
    ExperimentResult,
    decode,
    encode,
)
from repro.phy.protocols import Protocol


def round_trip(value):
    return decode(encode(value))


class TestEncode:
    def test_scalars(self):
        for v in (None, True, 3, -1.5, "x"):
            assert round_trip(v) == v

    def test_numpy_scalars_become_python(self):
        assert round_trip(np.float64(2.5)) == 2.5
        assert round_trip(np.int64(7)) == 7
        assert round_trip(np.bool_(True)) is True

    def test_non_finite_floats(self):
        assert np.isnan(round_trip(float("nan")))
        assert round_trip(float("inf")) == float("inf")
        assert round_trip(float("-inf")) == float("-inf")

    def test_complex(self):
        assert round_trip(1 + 2j) == 1 + 2j
        assert round_trip(np.complex128(3 - 4j)) == 3 - 4j

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(6, dtype=np.float64).reshape(2, 3),
            np.array([1, 2, 3], dtype=np.int32),
            np.array([True, False]),
            np.array([1 + 1j, 2 - 2j], dtype=np.complex128),
            np.array([], dtype=np.float32),
        ],
    )
    def test_ndarray_dtype_and_shape(self, arr):
        out = round_trip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_ndarray_non_finite(self):
        arr = np.array([1.0, np.nan, np.inf, -np.inf])
        out = round_trip(arr)
        assert np.array_equal(np.isnan(out), np.isnan(arr))
        assert out[2] == np.inf and out[3] == -np.inf

    def test_object_array_rejected(self):
        with pytest.raises(ArtifactError, match="object-dtype"):
            encode(np.array([object()]))

    def test_tuple_and_nested(self):
        v = {"a": (1, (2.5, "x")), "b": [1, 2]}
        assert round_trip(v) == v

    def test_non_string_keys(self):
        v = {(Protocol.BLE, 4.0): {"m": 1.0}, 2.5: "x"}
        assert round_trip(v) == v

    def test_enum_values_and_keys(self):
        v = {Protocol.WIFI_B: Mode.MODE_2, "m": Material.DRYWALL}
        out = round_trip(v)
        assert out[Protocol.WIFI_B] is Mode.MODE_2
        assert out["m"] is Material.DRYWALL

    def test_registered_dataclasses(self):
        report = AccuracyReport(
            per_protocol={Protocol.BLE: 0.9},
            confusion={(Protocol.BLE, Protocol.ZIGBEE): 2},
        )
        est = CarrierEstimate(
            protocol=Protocol.WIFI_N, observed_rate_pkts=10.0, tag_goodput_kbps=5.0
        )
        out = round_trip({"r": report, "e": est})
        assert out["r"] == report
        assert out["e"] == est

    def test_unregistered_types_rejected(self):
        class Color:  # not an enum/dataclass we know
            pass

        with pytest.raises(ArtifactError, match="cannot serialize"):
            encode(Color())

        @dataclasses.dataclass
        class Local:
            x: int = 1

        with pytest.raises(ArtifactError, match="unregistered dataclass"):
            encode(Local())

    def test_reserved_key_dict_uses_mapping(self):
        v = {"__kind__": "sneaky", "x": 1}
        assert round_trip(v) == v

    def test_unknown_tag_rejected(self):
        with pytest.raises(ArtifactError, match="unknown artifact tag"):
            decode({"__kind__": "zorp"})


class TestExperimentResult:
    def test_getitem_error_names_experiment_and_keys(self):
        r = ExperimentResult(name="fig99", data={"a": 1, "b": 2})
        assert r["a"] == 1
        with pytest.raises(KeyError) as exc:
            r["missing"]
        msg = str(exc.value)
        assert "fig99" in msg and "missing" in msg and "'a', 'b'" in msg

    def test_keys(self):
        assert ExperimentResult(name="x", data={"a": 1}).keys() == ("a",)

    def test_json_round_trip_preserves_provenance(self):
        r = ExperimentResult(
            name="x",
            data={"arr": np.arange(3.0)},
            notes=["n1"],
            preset="quick",
            params={"seed": 7},
        )
        r2 = ExperimentResult.from_json(r.to_json())
        assert r2.name == "x" and r2.preset == "quick"
        assert r2.params == {"seed": 7}
        assert r2.notes == ["n1"]
        assert np.array_equal(r2.data["arr"], np.arange(3.0))

    def test_from_json_rejects_non_artifact(self):
        with pytest.raises(ArtifactError, match="not a"):
            ExperimentResult.from_json('{"name": "x"}')
        with pytest.raises(ArtifactError, match="not valid JSON"):
            ExperimentResult.from_json("{")

    def test_from_json_rejects_future_schema(self):
        r = ExperimentResult(name="x")
        text = r.to_json().replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(ArtifactError, match="schema_version"):
            ExperimentResult.from_json(text)

    def test_artifact_doc_shape(self):
        import json

        doc = json.loads(ExperimentResult(name="x").to_json())
        assert doc["artifact"] == ARTIFACT_TAG
        assert set(doc) == {
            "artifact", "schema_version", "name", "preset", "params",
            "notes", "data",
        }

    def test_save_and_load(self, tmp_path):
        r = ExperimentResult(name="exp", data={"v": 1.5})
        path = r.save_in(tmp_path / "run")
        assert path == tmp_path / "run" / "exp.json"
        assert ExperimentResult.load(path).data == {"v": 1.5}


def _ndarray(dtype, shape, data):
    return {"__kind__": "ndarray", "dtype": dtype, "shape": shape, "data": data}


#: Well-formed JSON whose content the codec cannot rebuild, by what the
#: loader used to raise: a missing key (KeyError), an array that does
#: not fit its shape (ValueError), an unknown dtype or dataclass field
#: (TypeError), a tuple without items and an unknown enum member
#: (KeyError).
_BAD_CONTENT = {
    "missing-name": lambda doc: doc.pop("name"),
    "missing-data": lambda doc: doc.pop("data"),
    "ndarray-misfit": lambda doc: doc["data"].update(a=_ndarray("float64", [3], [1.0, 2.0])),
    "unknown-dtype": lambda doc: doc["data"].update(a=_ndarray("float99", [1], [1.0])),
    "unknown-field": lambda doc: doc["data"].update(
        a={"__kind__": "dataclass", "type": "CarrierEstimate", "fields": {"bogus": 1}}
    ),
    "tuple-without-items": lambda doc: doc["data"].update(a={"__kind__": "tuple"}),
    "unknown-enum-member": lambda doc: doc["data"].update(
        a={"__kind__": "enum", "type": "Protocol", "name": "WIFI_Z"}
    ),
}


class TestMalformedContent:
    """Each bad content raises ``ArtifactError`` naming the path from
    ``load``: ``show`` prints "cannot load" and exits 2, and
    ``check_artifacts`` lists the file as unloadable."""

    @pytest.fixture(params=sorted(_BAD_CONTENT))
    def bad_path(self, request, tmp_path):
        import json

        doc = json.loads(ExperimentResult(name="table2_resources", preset="quick").to_json())
        _BAD_CONTENT[request.param](doc)
        path = tmp_path / "table2_resources.json"
        path.write_text(json.dumps(doc))
        return path

    def test_load(self, bad_path):
        with pytest.raises(ArtifactError, match="invalid content") as exc:
            ExperimentResult.load(bad_path)
        assert str(bad_path) in str(exc.value)

    def test_show(self, bad_path, capsys):
        from repro.cli import main

        assert main(["show", str(bad_path)]) == 2
        assert f"cannot load {bad_path}" in capsys.readouterr().err

    def test_check_artifacts(self, bad_path):
        from tools import check_artifacts

        (problem,) = check_artifacts.check_artifact(bad_path)
        assert problem.startswith("unloadable:") and "invalid content" in problem


class TestUnrenderable:
    """A well-formed artifact that names an experiment the registry does
    not declare, or lacks a data key its table reads."""

    @pytest.fixture
    def path(self, tmp_path):
        return ExperimentResult(name="fig99_missing", preset="quick", params={}).save_in(tmp_path)

    def test_show_exits_2(self, path, capsys):
        from repro.cli import main

        assert main(["show", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot show {path}" in err and "unknown experiment 'fig99_missing'" in err

    def test_check_artifacts_lists_it(self, path):
        from tools import check_artifacts

        problems = check_artifacts.check_artifact(path)
        assert any("render failed" in p and "fig99_missing" in p for p in problems)

    def test_show_exits_2_on_a_missing_data_key(self, tmp_path, capsys):
        from repro.cli import main

        path = ExperimentResult(name="table2_resources", preset="quick", params={}).save_in(
            tmp_path
        )
        assert main(["show", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot show {path}" in err and "has no data key" in err
