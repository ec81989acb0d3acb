import unicodedata

from hypothesis import given, strategies as st

from fundmob.textnorm import strip_accents


@given(st.one_of(st.text(), st.text(alphabet="aZ .-éÉüßİﬁ́²")))
def test_strip_accents_is_nfkd_without_combining_marks(text):
    # the ASCII fast path must agree with the full decomposition
    expected = "".join(c for c in unicodedata.normalize("NFKD", text) if not unicodedata.combining(c))
    assert strip_accents(text) == expected
