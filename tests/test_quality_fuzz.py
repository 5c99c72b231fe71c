"""Property-based tests for the linter's parsing edge: arbitrary source
never crashes the suppression scanner, which fails only through its
typed ``LintError`` family."""

from hypothesis import given, settings, strategies as st

from repro.quality import SuppressionError, parse_suppressions

# ----------------------------------------------------------------------
# suppression scanning

NOQA_FRAGMENTS = st.sampled_from(
    [
        "# repro: noqa",
        "# repro: noqa[RPR001]",
        "# repro: noqa[RPR001] -- reason",
        "# repro: noqa[RPR001,RPR008] -- spawn-safe: see DESIGN.md",
        "#repro: noqa[",
        "# repro: noqa[]",
        "# repro: noqa[rpr1]",
        "# repro:  noqa[RPR001] --",
        "`# repro: noqa[RPR001]`",
    ]
)

SOURCE_LINES = st.lists(
    st.one_of(
        st.text(alphabet=st.characters(blacklist_characters="\r\n")),
        NOQA_FRAGMENTS,
        st.tuples(
            st.text(
                alphabet=st.characters(blacklist_characters="\r\n"),
                max_size=30,
            ),
            NOQA_FRAGMENTS,
        ).map(lambda pair: pair[0] + pair[1]),
    ),
    max_size=20,
)


class TestParseSuppressionsNeverCrashes:
    @settings(max_examples=200, deadline=None)
    @given(source=st.text())
    def test_arbitrary_text(self, source):
        try:
            table = parse_suppressions(source)
        except SuppressionError:
            return  # the one sanctioned failure mode
        assert isinstance(table, dict)
        assert all(isinstance(line, int) for line in table)

    @settings(max_examples=200, deadline=None)
    @given(lines=SOURCE_LINES)
    def test_noqa_shaped_text(self, lines):
        source = "\n".join(lines)
        # splitlines() honours more separators than "\n" (e.g. \x1e), so
        # count lines the way the scanner does.
        line_count = max(1, len(source.splitlines()))
        try:
            table = parse_suppressions(source)
        except SuppressionError as exc:
            # The error points at a real line of the input.
            assert 1 <= exc.line <= line_count
            return
        for line, suppression in table.items():
            assert 1 <= line <= line_count
            assert suppression.rule_ids
