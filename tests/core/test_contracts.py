"""Property tests for the runtime array-contract decorators.

Two guarantees under test:

1. **Zero overhead when disabled** — with ``REPRO_CONTRACTS`` unset the
   decorators return the *original function object*, so decorated PHY
   entry points pay nothing (not even a wrapper frame).
2. **Real validation when enabled** — :func:`repro.core.contracts.checked`
   (and decorators applied while enabled) reject wrong dtypes and
   shapes with :class:`ContractError`, and accept conforming arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import contracts
from repro.core.contracts import ContractError, checked, dtypes, shapes


@pytest.fixture
def contracts_enabled(monkeypatch):
    monkeypatch.setattr(contracts, "_ENABLED", True)


# ----------------------------------------------------------------------
# 1. zero overhead when disabled
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    contracts.enabled(),
    reason="REPRO_CONTRACTS=1: decorators legitimately wrap in this environment",
)
class TestDisabledIsNoOp:
    @given(spec=st.sampled_from(["n -> n", "n_sym,64 -> n_sym*80", "a ; b ->", "n_bits ->"]))
    @settings(max_examples=20)
    def test_shapes_returns_original_function(self, spec):
        def fn(x):
            return x

        assert shapes(spec)(fn) is fn

    @given(
        dt=st.sampled_from([np.uint8, np.float64, np.complex128, None]),
        out=st.sampled_from([np.complex128, None]),
    )
    @settings(max_examples=20)
    def test_dtypes_returns_original_function(self, dt, out):
        def fn(x):
            return x

        assert dtypes(dt, out=out)(fn) is fn

    @given(n=st.integers(min_value=0, max_value=256))
    @settings(max_examples=25)
    def test_decorated_call_is_identity_on_any_input(self, n):
        # Even shape-violating arrays sail through when disabled:
        # the decorator never sees the call.
        @shapes("m,64 -> m")
        @dtypes(np.complex128)
        def fn(x):
            return x

        arr = np.zeros(n, dtype=np.uint8)  # wrong dtype AND wrong rank
        assert fn(arr) is arr

    def test_malformed_spec_still_fails_fast(self):
        # The fail-fast parse runs even when disabled, so typos in
        # contracts surface at import time rather than never.  The
        # bracketed per-item form is not part of the grammar.
        for spec in ("n ;; -> n", "[n] ->"):
            with pytest.raises(ValueError):
                shapes(spec)

    def test_phy_entry_points_are_unwrapped(self):
        # The shipped decorators were applied at import time with
        # checking off, so the public kernels are bare functions.
        from repro.phy import zigbee

        assert not hasattr(zigbee.symbols_from_bits, "__wrapped__")


# ----------------------------------------------------------------------
# 2. validation when enabled
# ----------------------------------------------------------------------
class TestEnabledValidates:
    @given(n_sym=st.integers(min_value=1, max_value=32))
    @settings(max_examples=25)
    def test_conforming_shapes_pass(self, n_sym):
        fn = checked(lambda x: np.zeros(80 * len(x)), shape="n_sym,64 -> n_sym*80")
        out = fn(np.zeros((n_sym, 64)))
        assert out.shape == (80 * n_sym,)

    @given(bad=st.integers(min_value=1, max_value=128).filter(lambda v: v != 64))
    @settings(max_examples=25)
    def test_wrong_fixed_dimension_rejected(self, bad):
        fn = checked(lambda x: x, shape="n_sym,64 ->")
        with pytest.raises(ContractError, match="contract requires 64"):
            fn(np.zeros((3, bad)))

    def test_wrong_rank_rejected(self):
        fn = checked(lambda x: x, shape="n,64 ->")
        with pytest.raises(ContractError, match="dimension"):
            fn(np.zeros(64))

    def test_symbol_consistency_enforced(self):
        fn = checked(lambda a, b: a, shape="n ; n ->")
        fn(np.zeros(5), np.zeros(5))
        with pytest.raises(ContractError, match="conflicts"):
            fn(np.zeros(5), np.zeros(6))

    def test_output_expression_checked(self):
        fn = checked(lambda x: np.zeros(2 * len(x)), shape="n -> n*3")
        with pytest.raises(ContractError, match="n\\*3"):
            fn(np.zeros(4))

    @given(
        wrong=st.sampled_from([np.float32, np.complex64, np.int32, np.uint16])
    )
    @settings(max_examples=10)
    def test_wrong_dtype_rejected(self, wrong):
        fn = checked(lambda x: x, arg_dtypes=(np.complex128,))
        with pytest.raises(ContractError, match="dtype"):
            fn(np.zeros(8, dtype=wrong))

    def test_right_dtype_and_output_dtype_pass(self):
        fn = checked(
            lambda x: x.astype(np.complex128),
            arg_dtypes=(np.uint8,),
            out=np.complex128,
        )
        out = fn(np.zeros(8, dtype=np.uint8))
        assert out.dtype == np.complex128

    def test_wrong_output_dtype_rejected(self):
        fn = checked(lambda x: x.astype(np.float32), out=np.float64)
        with pytest.raises(ContractError, match="return value"):
            fn(np.zeros(4))

    def test_decorators_wrap_when_enabled(self, contracts_enabled):
        @shapes("n -> n")
        def fn(x):
            return x

        assert fn.__wrapped__ is not None
        with pytest.raises(ContractError):
            fn(np.zeros((2, 2)))

    def test_wildcard_dimension_accepts_anything(self):
        fn = checked(lambda x: x, shape="_,4 ->")
        fn(np.zeros((1, 4)))
        fn(np.zeros((999, 4)))

    def test_non_array_positionals_skipped(self):
        fn = checked(lambda cfg, x: x, shape="n ->")
        assert fn(object(), np.zeros(3)).shape == (3,)


# ----------------------------------------------------------------------
# env-var plumbing
# ----------------------------------------------------------------------
class TestToggle:
    def test_env_parsing(self, monkeypatch):
        for truthy in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_CONTRACTS", truthy)
            assert contracts._env_enabled()
        for falsy in ("0", "", "off", "no"):
            monkeypatch.setenv("REPRO_CONTRACTS", falsy)
            assert not contracts._env_enabled()
