"""Hint validation: nonsense values must fail fast, however constructed."""

import numpy as np
import pytest

from repro.romio.hints import HintError, Hints


class TestParseTimeRejection:
    @pytest.mark.parametrize("value", ["0", "-4096", "-1k"])
    def test_nonpositive_ind_wr_buffer_size(self, value):
        with pytest.raises(HintError, match="ind_wr_buffer_size"):
            Hints.from_info({"ind_wr_buffer_size": value})

    @pytest.mark.parametrize("value", ["0", "-16m"])
    def test_nonpositive_cb_buffer_size(self, value):
        with pytest.raises(HintError, match="cb_buffer_size"):
            Hints.from_info({"cb_buffer_size": value})

    @pytest.mark.parametrize("value", ["", "   "])
    def test_empty_cache_path(self, value):
        with pytest.raises(HintError, match="e10_cache_path"):
            Hints.from_info({"e10_cache_path": value})


class TestValidateMethod:
    """Hints built directly (bypassing from_info) still get checked."""

    def test_validate_returns_self_for_chaining(self):
        h = Hints()
        assert h.validate() is h

    def test_direct_bad_cb_buffer_size(self):
        h = Hints(cb_buffer_size=0)
        with pytest.raises(HintError, match="cb_buffer_size"):
            h.validate()

    def test_direct_bad_ind_wr_buffer_size(self):
        h = Hints(ind_wr_buffer_size=-1)
        with pytest.raises(HintError, match="ind_wr_buffer_size"):
            h.validate()

    def test_direct_bad_cb_nodes(self):
        h = Hints(cb_nodes=0)
        with pytest.raises(HintError, match="cb_nodes"):
            h.validate()

    def test_blank_path_only_fatal_with_cache_enabled(self):
        # Cache disabled: an unused blank path is tolerated.
        Hints(e10_cache_path=" ").validate()
        h = Hints(e10_cache="enable", e10_cache_path=" ")
        with pytest.raises(HintError, match="e10_cache_path"):
            h.validate()

    def test_hint_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            Hints(cb_buffer_size=-1).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("romio_cb_write", "enabled"),
            ("e10_cache", "enabled"),
            ("e10_cache_flush_flag", "flush_later"),
            ("e10_cache_discard_flag", "on"),
        ],
    )
    def test_direct_out_of_domain_choice(self, field, value):
        """A choice outside the domain ``from_info`` parses against is
        refused, not run as whatever its default branch does (an
        ``e10_cache="enabled"`` would otherwise run uncached)."""
        h = Hints(**{field: value})
        with pytest.raises(HintError, match=rf"hint {field}='{value}': expected one of"):
            h.validate()


class TestSizesAndCounts:
    """A size or count hint is a positive integer (or unset, where unset
    means a default), and ``cb_config_spread`` a bool, however the object
    was built."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("striping_unit", 0, "must be positive"),
            ("striping_unit", -4096, "must be positive"),
            ("striping_unit", 4096.0, "must be an integer"),
            ("striping_factor", 0, "must be positive"),
            ("striping_factor", 2.5, "must be an integer"),
            ("striping_factor", True, "must be an integer"),
            ("cb_buffer_size", 1.5, "must be an integer"),
            ("ind_wr_buffer_size", "512k", "must be an integer"),
            ("cb_nodes", 2.0, "must be an integer"),
        ],
    )
    def test_direct_bad_size_or_count(self, field, value, message):
        with pytest.raises(HintError, match=rf"hint {field}={value!r}: {message}"):
            Hints(**{field: value}).validate()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_direct_non_bool_spread(self, value):
        message = rf"hint cb_config_spread={value!r}: must be a bool"
        with pytest.raises(HintError, match=message):
            Hints(cb_config_spread=value).validate()

    def test_unset_layout_and_numpy_integers_pass(self):
        Hints(striping_unit=None, striping_factor=None, cb_nodes=None).validate()
        Hints(striping_unit=np.int64(4096), striping_factor=np.int32(4)).validate()

    @pytest.mark.parametrize("field", ["striping_unit", "striping_factor"])
    def test_parsed_zero_layout_refused(self, field):
        with pytest.raises(HintError, match=field):
            Hints.from_info({field: "0"})


class TestMessagesNameFieldAndValue:
    """Every rejection names the offending hint key and its value."""

    def test_size_message_carries_the_raw_value(self):
        with pytest.raises(HintError, match=r"cb_buffer_size='-16m': negative"):
            Hints.from_info({"cb_buffer_size": "-16m"})

    def test_non_integer_message_carries_the_raw_value(self):
        with pytest.raises(HintError, match=r"cb_nodes='many': not an integer"):
            Hints.from_info({"cb_nodes": "many"})

    def test_enum_message_lists_the_allowed_values(self):
        with pytest.raises(
            HintError, match=r"romio_cb_write='sometimes': expected one of"
        ):
            Hints.from_info({"romio_cb_write": "sometimes"})

    def test_constructed_hints_report_field_and_value(self):
        with pytest.raises(HintError, match=r"cb_buffer_size=0: must be positive"):
            Hints(cb_buffer_size=0).validate()
