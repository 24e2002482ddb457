from __future__ import annotations

import copy
import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import procsel.functional as functional
from procsel import load_registry
from procsel.bpmn import TaskRequirement, bind_requirements
from procsel.errors import ConfigError
from procsel.functional import (
    DEFAULT_SCORE_TABLE,
    ScoreTable,
    gate_candidates,
    match_context,
    score_functional,
)
from procsel.lexicon import EMPTY_LEXICON, SynonymLexicon, extract_keywords, terms_match
from procsel.registry import Operation, Parameter, ServiceCategory, ServiceRegistry, WebService

from conftest import SENDMAIL_REGISTRY
from generators import (
    CONTEXTS,
    DATATYPES,
    WORDS,
    gen_case_fixture,
    gen_process,
    gen_registry,
    permute_registry,
    substitute_synonyms,
)


def _req(inputs, outputs, context=frozenset({"ctx"})):
    return TaskRequirement("task", "task", inputs, outputs, set(context))


def _params(*specs):
    return [Parameter(name, datatype) for name, datatype in specs]


# --- context filter -----------------------------------------------------------

def test_match_context_direct_hit():
    req = _req([], _params(("reply", "boolean")), {"authentication", "login"})
    category = ServiceCategory("auth", {"system", "authentication", "login"})
    assert match_context(req, category, EMPTY_LEXICON)


def test_match_context_disjoint():
    req = _req([], _params(("reply", "boolean")), {"payment"})
    category = ServiceCategory("auth", {"system", "authentication", "login"})
    assert not match_context(req, category, EMPTY_LEXICON)


def test_match_context_via_synonym():
    req = _req([], _params(("reply", "boolean")), {"signin"})
    category = ServiceCategory("auth", {"login"})
    assert match_context(req, category, SynonymLexicon({"signin": ["login"]}))


# --- parameter matching ----------------------------------------------------------

def _matched_inputs(user, op, lexicon=EMPTY_LEXICON):
    """(names, datatypes) matched between user and operation inputs, read off
    score_functional's input components (string_different is 0 by default)."""
    score = score_functional(_req(user, []), Operation("op", op, []), lexicon)
    same = DEFAULT_SCORE_TABLE.string_same
    return score.str_input_name // same, score.str_input_datatype // same


def test_pairing_order_does_not_matter():
    user = _params(("username", "string"), ("password", "string"))
    op = _params(("password", "string"), ("username", "string"))
    assert _matched_inputs(user, op) == (2, 2)


def test_pairing_empty_user_side():
    assert _matched_inputs([], _params(("x", "string"))) == (0, 0)


def test_pairing_synonym_edge():
    lex = SynonymLexicon({"addr": ["address"]})
    assert _matched_inputs(_params(("addr", "string")), _params(("address", "string")), lex)[0] == 1


def test_pairing_datatype_is_exact_match_only():
    lex = SynonymLexicon({"string": ["integer"]})  # synonyms must not affect datatypes
    assert _matched_inputs(_params(("a1", "string")), _params(("b1", "integer")), lex)[1] == 0


def test_pairing_multi_token_coverage():
    user = _params(("userName", "string"),)
    op = _params(("name_of_user", "string"),)
    assert _matched_inputs(user, op)[0] == 1


def _brute_force_max(user, op, edge):
    indices_u, indices_o = range(len(user)), range(len(op))
    for r in range(min(len(user), len(op)), 0, -1):
        for chosen_u in combinations(indices_u, r):
            for chosen_o in permutations(indices_o, r):
                if all(edge(user[u], op[o]) for u, o in zip(chosen_u, chosen_o)):
                    return r
    return 0


def test_pairing_is_maximum_against_brute_force():
    rng = random.Random(21)
    lex = SynonymLexicon({"customer": ["client"], "price": ["cost"]})
    pool = WORDS[:10] + ["client", "cost"]
    same = DEFAULT_SCORE_TABLE.string_same

    def names(u, o):
        return _matched_inputs([u], [o], lex)[0] == 1

    def datatypes(u, o):
        return u.datatype == o.datatype

    def params():
        return [Parameter(rng.choice(pool), rng.choice(DATATYPES)) for _ in range(rng.randint(0, 6))]

    repeated_datatypes = 0
    for _ in range(60):
        user_in, user_out, op_in, op_out = params(), params(), params(), params()
        score = score_functional(_req(user_in, user_out), Operation("op", op_in, op_out), lex)
        assert score.str_input_name == same * _brute_force_max(user_in, op_in, names)
        assert score.str_output_name == same * _brute_force_max(user_out, op_out, names)
        assert score.str_input_datatype == same * _brute_force_max(user_in, op_in, datatypes)
        assert score.str_output_datatype == same * _brute_force_max(user_out, op_out, datatypes)
        for user, op in ((user_in, op_in), (user_out, op_out)):
            if all(len({p.datatype for p in side}) < len(side) for side in (user, op)):
                repeated_datatypes += 1
    assert repeated_datatypes >= 20  # both sides repeat a datatype in many of the pairs


def test_pairing_pairs_are_injective():
    # A parameter on either side is matched at most once, so the count is
    # bounded by the parameters on each side that have any match at all.
    rng = random.Random(33)
    for _ in range(50):
        user = [Parameter(rng.choice(WORDS[:6]), rng.choice(DATATYPES)) for _ in range(rng.randint(0, 5))]
        op = [Parameter(rng.choice(WORDS[:6]), rng.choice(DATATYPES)) for _ in range(rng.randint(0, 5))]
        names, datatypes = _matched_inputs(user, op)
        for matched, by in ((names, 0), (datatypes, 1)):
            edges = [[_matched_inputs([u], [o])[by] == 1 for o in op] for u in user]
            assert matched <= sum(any(row) for row in edges)
            assert matched <= sum(any(column) for column in zip(*edges))
            assert matched <= min(len(user), len(op))


# --- scoring --------------------------------------------------------------------

def test_case1_login_exact_match():
    req = _req(
        _params(("username", "string"), ("password", "string")),
        _params(("authentication", "boolean")),
        {"authentication", "login"},
    )
    op = Operation(
        "login",
        _params(("username", "string"), ("password", "string")),
        _params(("authentication", "boolean")),
    )
    score = score_functional(req, op, EMPTY_LEXICON)
    assert (
        score.nb_input,
        score.nb_output,
        score.str_input_name,
        score.str_output_name,
        score.str_input_datatype,
        score.str_output_datatype,
    ) == (3, 3, 4, 2, 4, 2)
    assert score.total == 18
    assert score.min_acceptable == 15
    assert score.passed


def test_case4_boundary_equality():
    req = _req(_params(("alpha", "string")), _params(("beta", "boolean")))
    op = Operation(
        "op",
        _params(("alpha", "string"), ("extra", "integer")),
        _params(("beta", "boolean"), ("bonus", "double")),
    )
    score = score_functional(req, op, EMPTY_LEXICON)
    assert score.total == 11
    assert score.min_acceptable == 11
    assert score.passed


def test_case5_rejected():
    req = _req(_params(("alpha", "string")), _params(("beta", "boolean"), ("gamma", "double")))
    op = Operation("op", _params(("alpha", "string")), _params(("beta", "boolean")))
    score = score_functional(req, op, EMPTY_LEXICON)
    assert score.total == 12
    assert score.min_acceptable == 15
    assert not score.passed


def test_total_equals_component_sum_randomized():
    rng = random.Random(5)
    for _ in range(200):
        case = rng.randint(1, 6)
        req, op = gen_case_fixture(rng, case)
        score = score_functional(req, op, EMPTY_LEXICON)
        assert score.total == (
            score.nb_input
            + score.nb_output
            + score.str_input_name
            + score.str_output_name
            + score.str_input_datatype
            + score.str_output_datatype
        )
        assert score.passed == (score.total >= score.min_acceptable)


def test_six_case_gate_soundness_sample():
    rng = random.Random(6)
    for case in range(1, 7):
        for _ in range(25):
            req, op = gen_case_fixture(rng, case)
            score = score_functional(req, op, EMPTY_LEXICON)
            assert score.passed == (case <= 4), (case, score)


def test_synonym_substitution_leaves_score_unchanged():
    rng = random.Random(8)
    lex = SynonymLexicon({word: [f"alt{word}"] for word in WORDS})
    for _ in range(100):
        req, op = gen_case_fixture(rng, rng.randint(1, 6))
        baseline = score_functional(req, op, lex)
        inputs, outputs = list(op.inputs), list(op.outputs)
        if not inputs + outputs:
            continue
        # Parameters are frozen: rename one by building a new parameter and
        # a new operation, which derives its shape and output_terms again.
        i = rng.randrange(len(inputs) + len(outputs))
        params, i = (inputs, i) if i < len(inputs) else (outputs, i - len(inputs))
        params[i] = replace(params[i], name=f"alt{params[i].name}")
        mutated = replace(op, inputs=inputs, outputs=outputs)
        assert score_functional(req, mutated, lex) == baseline


def test_parameter_order_invariance():
    rng = random.Random(9)
    for _ in range(100):
        req, op = gen_case_fixture(rng, rng.randint(1, 6))
        baseline = score_functional(req, op, EMPTY_LEXICON)
        shuffled_req = TaskRequirement(
            req.task_id,
            req.task_name,
            rng.sample(req.inputs, len(req.inputs)),
            rng.sample(req.outputs, len(req.outputs)),
            req.context_keywords,
        )
        shuffled_op = Operation(
            op.name,
            rng.sample(op.inputs, len(op.inputs)),
            rng.sample(op.outputs, len(op.outputs)),
        )
        assert score_functional(shuffled_req, shuffled_op, EMPTY_LEXICON) == baseline


def test_string_different_override_counts_unmatched_slots():
    table = ScoreTable(string_different=1)
    req = _req(_params(("alpha", "string"), ("beta", "string")), _params(("gamma", "boolean")))
    op = Operation("op", _params(("alpha", "string"), ("zz", "integer")), _params(("gamma", "boolean")))
    score = score_functional(req, op, EMPTY_LEXICON, table)
    # one matched input name (2 points) + one compared-but-different slot (1 point)
    assert score.str_input_name == 3


# --- gate ------------------------------------------------------------------------

def test_gate_sendmail_auth_task(fixture_lexicon):
    registry = load_registry(SENDMAIL_REGISTRY)
    req = _req(
        _params(("username", "string"), ("password", "string")),
        _params(("authentication", "boolean")),
        {"authentication", "login"},
    )
    # brute-force oracle: score all four fixture operations unconditionally
    all_scores = {
        op.name: score_functional(req, op, fixture_lexicon)
        for _, svc in registry.iter_services()
        for op in svc.operations
    }
    assert {name for name, s in all_scores.items() if s.passed} == {"login"}
    passing = gate_candidates(req, registry, fixture_lexicon)
    assert [(svc.name, op.name) for svc, op, _ in passing] == [("authentication", "login")]
    assert passing[0][2] == all_scores["login"]
    assert passing.context_matched


def test_gate_no_matching_category(sendmail_registry):
    req = _req([], _params(("reply", "boolean")), {"astronomy"})
    passing = gate_candidates(req, sendmail_registry, EMPTY_LEXICON)
    assert passing == []
    assert not passing.context_matched


def test_gate_context_match_without_passing_operation(sendmail_registry):
    req = _req([], _params(("astronomy", "double")), {"email"})
    passing = gate_candidates(req, sendmail_registry, EMPTY_LEXICON)
    assert passing == []
    assert passing.context_matched


def test_gate_keeps_duplicate_services(sendmail_registry):
    twin = copy.deepcopy(sendmail_registry.categories[0].services[0])
    twin.service_key = "ws.twin"
    sendmail_registry.categories[0].services.append(twin)
    req = _req(
        _params(("username", "string"), ("password", "string")),
        _params(("authentication", "boolean")),
        {"login"},
    )
    passing = gate_candidates(req, sendmail_registry, EMPTY_LEXICON)
    assert [svc.service_key for svc, _, _ in passing] == ["ws.15.09.2013.08.43.40", "ws.twin"]


def test_gate_results_in_registry_order(sendmail_registry):
    req = _req(
        _params(("senderAddress", "string"), ("receiverAddress", "string"), ("emailContent", "string")),
        _params(("reply", "boolean")),
        {"email"},
    )
    passing = gate_candidates(req, sendmail_registry, EMPTY_LEXICON)
    assert [op.name for _, op, _ in passing] == ["sendEmail", "sendEmailWithAttachment"]


def test_gate_matches_datatypes_once_per_shape(monkeypatch):
    original = functional._matched_datatypes
    calls = []

    def counted(user, op):
        calls.append((user, op))
        return original(user, op)

    monkeypatch.setattr(functional, "_matched_datatypes", counted)
    rng = random.Random(12)
    req = _req(
        _params(("alpha", "string"), ("beta", "integer")),
        _params(("gamma", "boolean"), ("delta", "string")),
        {"ctx"},
    )
    for n in (20, 45):
        services = []
        for i in range(n):
            # a few shapes, under shuffled and partly renamed parameters;
            # one output short of the task fails the count bound
            inputs = _params(("alpha", "string"), (rng.choice(["beta", "zeta"]), "integer"))
            rng.shuffle(inputs)
            outputs = _params(("gamma", "boolean"), (rng.choice(["delta", "omega"]), "string"))
            op = Operation(f"op{i}", inputs, outputs[: rng.randint(1, 2)])
            services.append(WebService(f"s{i}", "", "", f"ws.{i}", "", "", [op]))
        registry = ServiceRegistry([ServiceCategory("c", {"ctx"}, services)])
        calls.clear()
        gated = gate_candidates(req, registry, EMPTY_LEXICON)
        surviving = {s.operations[0].shape for s in services if len(s.operations[0].outputs) == 2}
        # once for inputs, once for outputs: per shape, not per operation
        assert len(calls) == 2 * len(surviving) < 2 * n
        expected = [
            (service.service_key, score)
            for service in services
            for score in [score_functional(req, service.operations[0], EMPTY_LEXICON)]
            if score.passed
        ]
        assert [(service.service_key, score) for service, _, score in gated] == expected
        assert 0 < len(expected) < n


@st.composite
def _score_tables(draw):
    unfavorable = draw(st.integers(-2, 3))
    favorable = unfavorable + draw(st.integers(1, 3))
    different = draw(st.integers(0, 3))
    return ScoreTable(
        nb_equal=favorable + draw(st.integers(1, 3)),
        nb_favorable=favorable,
        nb_unfavorable=unfavorable,
        string_same=different + draw(st.integers(1, 4)),
        string_different=different,
    ).validate()


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), synonyms=st.booleans(), table=_score_tables())
def test_pruned_gate_equals_scoring_every_operation(seed, synonyms, table):
    rng = random.Random(seed)
    registry = gen_registry(rng, max_categories=4, max_services=4, max_operations=4)
    process = gen_process(rng, registry, match_probability=0.7)
    lexicon = EMPTY_LEXICON
    if synonyms:
        terms = WORDS + CONTEXTS
        lexicon = SynonymLexicon(
            {term: rng.sample(terms, rng.randint(1, 3)) for term in rng.sample(terms, 12)}
        )
    for gated_registry in (registry, permute_registry(rng, registry)):
        for requirement in bind_requirements(process):
            matching = [
                c for c in gated_registry.categories if match_context(requirement, c, lexicon)
            ]
            expected = [
                (service.service_key, op.name, score)
                for category in matching
                for service in category.services
                for op in service.operations
                for score in [score_functional(requirement, op, lexicon, table)]
                if score.passed
            ]
            gated = gate_candidates(requirement, gated_registry, lexicon, table)
            assert [(s.service_key, op.name, score) for s, op, score in gated] == expected
            assert gated.context_matched == bool(matching)


def _one_category(operations_per_service):
    services = [
        WebService(f"s{i}", "", "", f"ws.{i:03d}", "", "", operations)
        for i, operations in enumerate(operations_per_service)
    ]
    return ServiceRegistry([ServiceCategory("c", {"ctx"}, services)])


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lexicon_kind=st.sampled_from(["substituted", "shared", "random"]),
    table=_score_tables(),
)
def test_gate_equals_scoring_every_operation_on_shared_shapes(seed, lexicon_kind, table):
    # Operations draw their parameter lists from a pool of four shapes, so
    # the per-count and per-shape memos both hit; "get_the" is all
    # stopwords and has no tokens.
    rng = random.Random(seed)
    names = rng.sample(WORDS, 5) + ["get_the"]

    def params(n):
        return [Parameter(rng.choice(names), rng.choice(DATATYPES[:2])) for _ in range(n)]

    shapes = [(params(rng.randint(0, 3)), params(rng.randint(0, 3))) for _ in range(4)]

    def operation(name):
        inputs, outputs = (list(p) for p in rng.choice(shapes))
        if rng.random() < 0.3:
            rng.shuffle(inputs)
            rng.shuffle(outputs)
        return Operation(name, inputs, outputs)

    registry = _one_category(
        [[operation(f"op{j}") for j in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 12))]
    )
    if lexicon_kind == "substituted":
        entries, registry = substitute_synonyms(rng, registry)
    elif lexicon_kind == "shared":
        # pairs that match only through a synonym they share
        entries = {}
        for k, (a, b) in enumerate(zip(names[0:4:2], names[1:4:2])):
            entries[a] = entries[b] = [f"via{k}"]
    else:
        terms = WORDS + ["via"]
        entries = {term: rng.sample(terms, rng.randint(1, 3)) for term in rng.sample(terms, 12)}
    lexicon = SynonymLexicon(entries)
    requirements = [_req(*shape) for shape in shapes] + [_req(params(2), params(rng.randint(0, 2)))]
    for requirement in requirements:
        expected = [
            (service.service_key, op.name, score)
            for service in registry.categories[0].services
            for op in service.operations
            for score in [score_functional(requirement, op, lexicon, table)]
            if score.passed
        ]
        gated = gate_candidates(requirement, registry, lexicon, table)
        assert [(s.service_key, op.name, score) for s, op, score in gated] == expected


def test_gate_drops_unreached_outputs_before_the_typed_and_name_stages(monkeypatch):
    calls = []
    for name in ("_staged_score", "_matched_names"):

        def counted(*args, _original=getattr(functional, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(functional, name, counted)
    req = _req(
        _params(("alpha", "string"), ("beta", "integer")),
        _params(("gamma", "boolean"), ("delta", "string")),
    )
    # Same counts and datatypes as the task, so only the output names can
    # sink them: with both unmatched the best score is 18 of the 19 needed.
    registry = _one_category(
        [
            [Operation(f"op{i}", list(req.inputs), _params((first, "boolean"), (second, "string")))]
            for i, (first, second) in enumerate(
                [("omega", "status"), ("get_the", "omega"), ("status", "result")]
            )
        ]
    )
    operations = [op for _, service in registry.iter_services() for op in service.operations]
    lexicon = SynonymLexicon({"gamma": ["outcome"], "delta": ["outcome"]})
    assert not any(score_functional(req, op, lexicon).passed for op in operations)
    calls.clear()  # the oracle above counts too

    gated = gate_candidates(req, registry, lexicon)
    assert gated == [] and gated.context_matched
    assert calls == []

    # Asked for one output, the same operations may pass unreached: each
    # shape is scored once and compares its input names only.
    one_output = _req(req.inputs, req.outputs[:1])
    passed = [op.name for op in operations if score_functional(one_output, op, lexicon).passed]
    calls.clear()
    gated = gate_candidates(one_output, registry, lexicon)
    assert [op.name for _, op, _ in gated] == passed == ["op0", "op1", "op2"]
    assert calls.count("_staged_score") == calls.count("_matched_names") == 3

    # The control: once an output name is reachable, the later stages run,
    # once per reachable shape.
    reaching = SynonymLexicon({"gamma": ["outcome"], "omega": ["outcome"]})
    passed = [op.name for op in operations if score_functional(req, op, reaching).passed]
    calls.clear()
    gated = gate_candidates(req, registry, reaching)
    assert [op.name for _, op, _ in gated] == passed == ["op0", "op1"]
    assert calls.count("_staged_score") == len({op.shape for op in operations[:2]}) == 2
    assert "_matched_names" in calls


def test_reachable_terms_close_over_a_shared_synonym():
    # alpha and beta are not each other's synonyms, but share one: they match.
    lexicon = SynonymLexicon({"alpha": ["shared"], "beta": ["shared"]})
    assert "beta" not in lexicon.synonyms("alpha")
    assert terms_match("alpha", "beta", lexicon)
    assert functional._reachable_terms(["getAlpha"], lexicon) == {"alpha", "shared", "beta"}
    assert functional._reachable_terms(["get_the", "of"], lexicon) == set()


_VOCABULARY = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]


@settings(max_examples=200, deadline=None, database=None)
@given(
    entries=st.dictionaries(
        st.sampled_from(_VOCABULARY),
        st.lists(st.sampled_from(_VOCABULARY), max_size=3),
        max_size=6,
    ),
    names=st.lists(
        st.lists(st.sampled_from(_VOCABULARY + ["fresh", "get", "the"]), max_size=3).map("_".join),
        max_size=3,
    ),
)
def test_reachable_terms_are_what_terms_match_pairs_with_a_requested_token(entries, names):
    lexicon = SynonymLexicon(entries)
    reachable = functional._reachable_terms(names, lexicon)
    tokens = [token for name in names for token in extract_keywords(name)]
    for term in set(_VOCABULARY) | {"fresh", "novel"} | reachable:
        assert (term in reachable) == any(terms_match(t, term, lexicon) for t in tokens), term


# --- score table -------------------------------------------------------------------

def test_score_table_validation():
    DEFAULT_SCORE_TABLE.validate()
    with pytest.raises(ConfigError):
        ScoreTable(nb_equal=1, nb_favorable=2).validate()
    with pytest.raises(ConfigError):
        ScoreTable(string_same=0).validate()
