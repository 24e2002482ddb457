from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import procsel.functional as functional
from procsel import load_lexicon
from procsel.errors import LexiconError
from procsel.lexicon import (
    EMPTY_LEXICON,
    KEYWORD_CACHE_SIZE,
    SynonymLexicon,
    extract_keywords,
    keyword_sets_match,
    keywords_cover,
)

from generators import WORDS, pairwise_terms_match


def test_extract_camel_case_with_stopword():
    assert extract_keywords("getUserName") == ("user", "name")


def test_extract_identity():
    assert extract_keywords("login") == ("login",)


def test_extract_mixed_separators_and_digits():
    assert extract_keywords("send_Email2Address") == ("send", "email", "2", "address")


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("", ()),
        ("the of and", ()),
        ("kebab-case-words", ("kebab", "case", "words")),
        ("HTTPServer", ("http", "server")),
        ("user user USER", ("user",)),
        ("address of sender", ("address", "sender")),
    ],
)
def test_extract_edge_cases(raw, expected):
    assert extract_keywords(raw) == expected


def test_extract_is_idempotent_on_random_identifiers():
    rng = random.Random(101)
    styles = ["{}_{}", "{}-{}", "{} {}", "{}{}"]
    for _ in range(300):
        a, b = rng.choice(WORDS), rng.choice(WORDS)
        raw = rng.choice(styles).format(a, b.capitalize())
        once = extract_keywords(raw)
        again = extract_keywords(" ".join(once))
        assert once == again


def test_keyword_cache_is_bounded():
    names = [f"param{i}Name" for i in range(KEYWORD_CACHE_SIZE + 500)]
    for name in names:
        extract_keywords(name)
    assert extract_keywords.cache_info().currsize <= KEYWORD_CACHE_SIZE
    # Evicted names are recomputed with the same result.
    assert extract_keywords(names[0]) == ("param", "0", "name")
    assert extract_keywords("getUserName") == ("user", "name")


def test_terms_match_exact():
    assert "login" in EMPTY_LEXICON.matches("login")


def test_terms_match_synonym():
    lex = SynonymLexicon({"buy": ["purchase"]})
    assert "buy" in lex.matches("purchase")
    assert "purchase" in lex.matches("buy")  # symmetric closure


def test_terms_match_disjoint():
    assert "email" not in EMPTY_LEXICON.matches("login")


def test_terms_match_via_shared_synonym():
    lex = SynonymLexicon({"signin": ["login"], "logon": ["login"]})
    assert "logon" in lex.matches("signin")


def test_terms_match_reflexive_and_symmetric():
    rng = random.Random(7)
    lex = SynonymLexicon({"buy": ["purchase", "order"], "mail": ["email"]})
    pool = WORDS + ["purchase", "buy", "mail"]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        assert a in lex.matches(a)
        assert (b in lex.matches(a)) == (a in lex.matches(b))


def test_keyword_sets_match_category_keywords():
    assert keyword_sets_match({"authentication"}, {"system", "authentication", "login"}, EMPTY_LEXICON)


def test_keyword_sets_match_empty_side_fails():
    assert not keyword_sets_match(set(), {"login"}, EMPTY_LEXICON)
    assert not keyword_sets_match({"login"}, set(), EMPTY_LEXICON)


def test_keyword_sets_match_synonym_bridging():
    lex = SynonymLexicon({"signin": ["login"]})
    assert keyword_sets_match({"signin"}, {"login"}, lex)


def test_keyword_sets_match_symmetric():
    rng = random.Random(13)
    lex = SynonymLexicon({"customer": ["client"], "price": ["cost"]})
    pool = WORDS + ["client", "cost"]
    for _ in range(100):
        left = set(rng.sample(pool, rng.randint(0, 3)))
        right = set(rng.sample(pool, rng.randint(0, 3)))
        assert keyword_sets_match(left, right, lex) == keyword_sets_match(right, left, lex)


def test_lexicon_drops_self_synonyms_and_normalizes():
    lex = SynonymLexicon({"Sign-In": ["signin", "LOGIN"]})
    assert lex.synonyms("signin") == frozenset({"login"})
    assert lex.synonyms("login") == frozenset({"signin"})


def test_lexicon_absent_term_yields_empty_set():
    assert SynonymLexicon({"buy": ["purchase"]}).synonyms("missing") == frozenset()


def test_lexicon_rejects_unusable_terms():
    with pytest.raises(LexiconError):
        SynonymLexicon({"!!!": ["x"]})
    with pytest.raises(LexiconError):
        SynonymLexicon({"buy": ["???"]})


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text('{"buy": ["purchase"], "signin": ["login"]}', encoding="utf-8")
    lex = load_lexicon(path)
    assert "buy" in lex.matches("purchase")


def test_load_lexicon_rejects_bad_shapes(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(bad_json)
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(not_object)
    bad_entry = tmp_path / "entry.json"
    bad_entry.write_text('{"buy": "purchase"}', encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(bad_entry)
    with pytest.raises(LexiconError):
        load_lexicon(tmp_path / "absent.json")


_TERMS = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]
_ABSENT = ["fresh", "novel"]  # never in a lexicon
_KEYWORDS = st.sets(st.sampled_from(_TERMS + _ABSENT), max_size=3)


@settings(max_examples=300, deadline=None, database=None)
@given(
    entries=st.dictionaries(
        st.sampled_from(_TERMS), st.lists(st.sampled_from(_TERMS), max_size=3), max_size=6
    ),
    user=_KEYWORDS,
    target=_KEYWORDS,
)
def test_match_sets_agree_with_the_pairwise_relation(entries, user, target):
    lexicon = SynonymLexicon(entries)
    pool = _TERMS + _ABSENT
    for a in pool:
        assert lexicon.matches(a) == {b for b in pool if pairwise_terms_match(a, b, lexicon)}, a
    assert keyword_sets_match(user, target, lexicon) == any(
        pairwise_terms_match(u, t, lexicon) for u in user for t in target
    )
    assert keywords_cover(user, target, lexicon) == all(
        any(pairwise_terms_match(u, t, lexicon) for t in target) for u in user
    )
    assert functional._reachable_terms(sorted(user), lexicon) == {
        t for t in pool if any(pairwise_terms_match(u, t, lexicon) for u in user)
    }
