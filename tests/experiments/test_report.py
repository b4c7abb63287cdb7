"""Unit tests for the text report renderer."""

import pytest

from repro.experiments.figures import FigureResult
from repro.experiments.report import render


def result():
    return FigureResult(
        name="figX",
        title="Example",
        headers=("A", "LongHeader"),
        rows=(("aa", 1.25), ("b", 22)),
        notes=("a note",),
    )


class TestRender:
    def test_contains_title_and_headers(self):
        text = render(result())
        assert "figX — Example" in text
        assert "LongHeader" in text

    def test_rows_rendered(self):
        text = render(result())
        assert "1.25" in text
        assert "22" in text

    def test_notes_rendered(self):
        assert "note: a note" in render(result())

    def test_truncation(self):
        text = render(result(), max_rows=1)
        assert "22" not in text
        assert "1 more rows" in text

    @pytest.mark.parametrize("max_rows", [0, -1, -5, 2, 3])
    def test_no_footer_when_every_row_is_shown(self, max_rows):
        # One rule for both: a limit at or below 0, or at or above the
        # row count, shows every row, so no rows are left to count.
        text = render(result(), max_rows=max_rows)
        assert "22" in text and "1.25" in text
        assert "more rows" not in text

    def test_columns_aligned(self):
        lines = render(result()).splitlines()
        header, sep = lines[1], lines[2]
        assert len(header) == len(sep)
