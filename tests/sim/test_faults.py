"""The deterministic fault harness.

``repro.sim.faults`` parses ``REPRO_FAULTS`` specs and fires them at
the instrumented sites; the recovery paths those sites exercise are
tested with their owners (``tests/gateway``, ``tests/experiments``).
"""

import pytest

from repro.sim import faults


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        spec = "raise:site=decode,index=3,attempts=2;hang:site=decode,hang_s=0.5"
        parsed = faults.parse_spec(spec)
        assert parsed == (
            faults.FaultSpec(kind="raise", site="decode", index=3, attempts=2),
            faults.FaultSpec(kind="hang", site="decode", hang_s=0.5),
        )

    def test_install_validates_and_sets_env(self, monkeypatch):
        faults.install("kill:site=save,name=fig15")
        try:
            assert faults.active_faults()[0].kind == "kill"
        finally:
            faults.clear()
        assert faults.active_faults() == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:site=decode",          # unknown kind
            "raise:index=3",                # missing site
            "raise:site=nowhere",           # unknown site
            "raise:site=trial",             # removed site
            "hang:site=chunk",              # removed site
            "raise:site=decode,index=x",    # non-numeric index
            "raise:site=decode,attempts=0", # attempts below 1
            "raise:site=decode,color=red",  # unknown field
            "raise:site=decode,index",      # malformed field
        ],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_spec(bad)

    def test_check_is_noop_without_env(self):
        faults.check("decode", index=0, attempt=1)  # must not raise

    def test_matching_gates(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR, "raise:site=decode,index=2,attempts=2"
        )
        faults.check("decode", index=1, attempt=1)      # wrong index
        faults.check("save", index=2, attempt=1)        # wrong site
        faults.check("decode", index=2, attempt=3)      # budget spent
        with pytest.raises(faults.FaultInjected):
            faults.check("decode", index=2, attempt=2)

    def test_name_substring_match(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "raise:site=save,name=fig15")
        faults.check("save", name="runs/x/fig13_los.json")
        with pytest.raises(faults.FaultInjected):
            faults.check("save", name="runs/x/fig15_occlusion.json")
