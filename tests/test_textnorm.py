import unicodedata

from hypothesis import given, strategies as st

from fundmob.textnorm import match_tokens, normalize_text, strip_accents, strip_token_punct


@given(st.one_of(st.text(), st.text(alphabet="aZ .-éÉüßİﬁ́²")))
def test_strip_accents_is_nfkd_without_combining_marks(text):
    # the ASCII fast path must agree with the full decomposition
    expected = "".join(c for c in unicodedata.normalize("NFKD", text) if not unicodedata.combining(c))
    assert strip_accents(text) == expected


# whitespace that str.split and re's \s both split on, edge punctuation,
# letters that decompose or case-fold to more than one character
@given(st.one_of(st.text(), st.text(alphabet="aZ .,;()'\"-éÉßİﬁ²\u00a0\x1c\u2028\t\n\u0308")))
def test_match_tokens_are_the_stripped_normal_form(text):
    assert " ".join(match_tokens(text)) == strip_token_punct(normalize_text(text))
