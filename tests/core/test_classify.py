"""Page-class (Table 1) classification."""

import pytest

from repro.core.classify import WRITE_INTENSIVE_THRESHOLD, PageClass, classify_page


class TestPageClass:
    def test_table1_matrix(self):
        assert classify_page(private=True, write_fraction=0.0) is PageClass.PRIVATE_READ
        assert classify_page(private=False, write_fraction=0.0) is PageClass.SHARED_READ
        assert classify_page(private=True, write_fraction=0.9) is PageClass.PRIVATE_WRITE
        assert classify_page(private=False, write_fraction=0.9) is PageClass.SHARED_WRITE

    def test_table1_priority_order(self):
        """★★★★ private-read > ★★★ shared-read > ★★ private-write > ★ shared-write."""
        assert (
            PageClass.PRIVATE_READ
            > PageClass.SHARED_READ
            > PageClass.PRIVATE_WRITE
            > PageClass.SHARED_WRITE
        )

    def test_table1_strategy_column(self):
        assert PageClass.PRIVATE_READ.use_async_copy
        assert PageClass.SHARED_READ.use_async_copy
        assert not PageClass.PRIVATE_WRITE.use_async_copy
        assert not PageClass.SHARED_WRITE.use_async_copy

    def test_ownership_and_intensity_helpers(self):
        assert PageClass.PRIVATE_WRITE.is_private
        assert not PageClass.SHARED_READ.is_private
        assert PageClass.SHARED_WRITE.is_write_intensive
        assert not PageClass.PRIVATE_READ.is_write_intensive

    def test_threshold_boundary(self):
        just_below = WRITE_INTENSIVE_THRESHOLD - 1e-9
        assert classify_page(private=True, write_fraction=just_below) is PageClass.PRIVATE_READ
        assert classify_page(private=True, write_fraction=WRITE_INTENSIVE_THRESHOLD) is PageClass.PRIVATE_WRITE

    def test_custom_threshold(self):
        assert classify_page(private=True, write_fraction=0.3, threshold=0.5) is PageClass.PRIVATE_READ

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            classify_page(private=True, write_fraction=1.5)
