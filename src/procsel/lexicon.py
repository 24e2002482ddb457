"""Keyword extraction and synonym-aware term matching.

All strings that take part in a comparison (context keywords, parameter
names, category keywords) are first reduced to lowercase alphanumeric
tokens. Two tokens match either because they are equal or because their
synonym sets intersect. Synonyms come from a JSON lexicon file instead of
a live dictionary service, so results are hermetic and reproducible.
The lexicon works out each term's match set once, when it is built, so a
comparison is one set lookup.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import Collection, Iterable, Mapping

from .errors import LexiconError
from .jsontext import read_json

# Dropped during extraction. Fixed contract: these words never survive as
# keywords, so synonym files and category keywords must not rely on them.
STOPWORDS = frozenset({"a", "an", "the", "of", "to", "and", "or", "get", "set"})

# Entries kept by extract_keywords' cache. Names arrive from request bodies,
# so an unbounded cache would grow with every distinct name a server is sent.
KEYWORD_CACHE_SIZE = 4096

_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")
_CASE_BOUNDARY = re.compile(
    r"(?<=[a-z0-9])(?=[A-Z])"      # fooBar -> foo Bar
    r"|(?<=[A-Z])(?=[A-Z][a-z])"   # HTTPServer -> HTTP Server
    r"|(?<=[0-9])(?=[A-Za-z])"     # 2address -> 2 address
    r"|(?<=[A-Za-z])(?=[0-9])"     # email2 -> email 2
)


def normalize_term(raw: str) -> str:
    """Collapse a string to its lowercase letters and digits.

    Used when loading lexicon files, where each entry is one term. Returns
    the empty string when nothing alphanumeric remains; callers decide
    whether that is an error.
    """
    return _NON_ALNUM.sub("", raw).lower()


@lru_cache(maxsize=KEYWORD_CACHE_SIZE)
def extract_keywords(raw: str) -> tuple[str, ...]:
    """Split an identifier or phrase into normalized keyword tokens.

    Splits on case boundaries, digit/letter boundaries, underscores,
    hyphens and any other non-alphanumeric characters, lowercases all
    tokens, drops stopwords and removes duplicates keeping the first
    occurrence. "getUserName" becomes ("user", "name").
    """
    tokens: dict[str, None] = {}
    for word in _NON_ALNUM.split(raw):
        for part in _CASE_BOUNDARY.split(word):
            if not part:
                continue
            token = part.lower()
            if token not in STOPWORDS:
                tokens.setdefault(token)
    return tuple(tokens)


_EMPTY: frozenset[str] = frozenset()


class SynonymLexicon:
    """Immutable mapping from a term to its set of synonyms.

    Entries are symmetric-closed at construction (if a lists b, then b
    also lists a), so matching never depends on which side of a pair was
    declared. A term is never its own synonym, and looking up an unknown
    term yields the empty set.

    Each term's match set (see matches) is derived once here: the term,
    its synonyms and their synonyms. As the entries are symmetric-closed,
    two terms share a synonym exactly when one is a synonym of a synonym
    of the other, so that set holds every term the term matches and no
    other.
    """

    __slots__ = ("_entries", "_matches")

    def __init__(self, entries: Mapping[str, Iterable[str]] | None = None):
        closed: dict[str, set[str]] = {}
        for term, synonyms in (entries or {}).items():
            base = normalize_term(term)
            if not base:
                raise LexiconError(f"lexicon term {term!r} normalizes to nothing")
            closed.setdefault(base, set())
            for raw in synonyms:
                syn = normalize_term(raw)
                if not syn:
                    raise LexiconError(
                        f"synonym {raw!r} of term {term!r} normalizes to nothing"
                    )
                if syn == base:
                    continue
                closed[base].add(syn)
                closed.setdefault(syn, set()).add(base)
        self._entries: dict[str, frozenset[str]] = {
            term: frozenset(syns) for term, syns in closed.items() if syns
        }
        self._matches: dict[str, frozenset[str]] = {
            term: syns.union((term,), *(closed[s] for s in syns))
            for term, syns in self._entries.items()
        }

    def synonyms(self, term: str) -> frozenset[str]:
        return self._entries.get(term, _EMPTY)

    def matches(self, term: str) -> frozenset[str]:
        """Every term that matches `term`: equal to it or sharing a synonym.

        Equivalent to intersecting {term} | synonyms(term) with
        {other} | synonyms(other) for each other term. The relation is
        reflexive and symmetric, but not transitive (a~b and b~c do not
        imply a~c when the shared synonyms differ).
        """
        return self._matches.get(term) or frozenset((term,))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"SynonymLexicon({len(self._entries)} terms)"


EMPTY_LEXICON = SynonymLexicon()


def load_lexicon(path: str | Path) -> SynonymLexicon:
    """Load a JSON lexicon file: an object mapping a term to synonym strings."""
    data = read_json(path, "lexicon", LexiconError)
    if not isinstance(data, dict):
        raise LexiconError(f"{path}: expected a JSON object of term -> [synonyms]")
    for term, synonyms in data.items():
        if not isinstance(synonyms, list) or not all(isinstance(s, str) for s in synonyms):
            raise LexiconError(f"{path}: entry {term!r} must map to an array of strings")
    return SynonymLexicon(data)


# The two tests below read the match sets directly, one lookup per term:
# a term the lexicon does not hold matches only itself, so it is looked up
# in the target, and any other term's match set is tested against the
# target once. Neither builds a set.


def keyword_sets_match(
    user: Iterable[str], target: Collection[str], lexicon: SynonymLexicon
) -> bool:
    """True when at least one user keyword matches one target keyword.

    An empty set on either side never matches.
    """
    match_sets = lexicon._matches
    for term in user:
        matches = match_sets.get(term)
        if term in target if matches is None else not matches.isdisjoint(target):
            return True
    return False


def keywords_cover(terms: Iterable[str], target: Collection[str], lexicon: SynonymLexicon) -> bool:
    """True when every one of terms matches a target keyword (so when terms is empty)."""
    match_sets = lexicon._matches
    for term in terms:
        matches = match_sets.get(term)
        if term not in target if matches is None else matches.isdisjoint(target):
            return False
    return True
