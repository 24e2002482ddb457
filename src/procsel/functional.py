"""Functional matching: context filter, parameter matching and the gate.

A candidate operation is scored on six components: how its input/output
parameter counts compare to the request, and how many input/output names
and datatypes can be matched. Candidates whose total falls below the
minimum acceptable score (the score of the weakest acceptable shape: all
requested outputs covered with at least partial input agreement) are
dropped before QoS scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bpmn import TaskRequirement
from .errors import ConfigError
from .lexicon import SynonymLexicon, extract_keywords, keyword_sets_match, terms_match
from .registry import Operation, Parameter, ServiceCategory, ServiceRegistry


@dataclass(frozen=True)
class ScoreTable:
    """Points awarded per comparison.

    Count comparisons award nb_equal for identical counts, nb_favorable
    for the tolerable direction (user requests more inputs / fewer
    outputs than the operation offers) and nb_unfavorable otherwise.
    String comparisons award string_same per matched pair and
    string_different per compared-but-unmatched slot.
    """

    nb_equal: int = 3
    nb_favorable: int = 2
    nb_unfavorable: int = 1
    string_same: int = 2
    string_different: int = 0

    def validate(self) -> "ScoreTable":
        if not self.nb_equal > self.nb_favorable > self.nb_unfavorable:
            raise ConfigError(
                "score_table requires nb_equal > nb_favorable > nb_unfavorable"
            )
        if not self.string_same > self.string_different >= 0:
            raise ConfigError(
                "score_table requires string_same > string_different >= 0"
            )
        return self


DEFAULT_SCORE_TABLE = ScoreTable()


@dataclass(frozen=True)
class FunctionalScore:
    nb_input: int
    nb_output: int
    str_input_name: int
    str_output_name: int
    str_input_datatype: int
    str_output_datatype: int
    total: int
    min_acceptable: int
    passed: bool


def match_context(
    requirement: TaskRequirement, category: ServiceCategory, lexicon: SynonymLexicon
) -> bool:
    """First filter: does any task context keyword match a category keyword?"""
    return keyword_sets_match(requirement.context_keywords, category.keywords, lexicon)


def _names_match(a: str, b: str, lexicon: SynonymLexicon) -> bool:
    # Token-wise with a coverage rule: every token of one name must find a
    # matching token in the other (in at least one direction).
    ta = extract_keywords(a)
    tb = extract_keywords(b)
    if not ta or not tb:
        return False

    def covers(xs: tuple[str, ...], ys: tuple[str, ...]) -> bool:
        return all(any(terms_match(x, y, lexicon) for y in ys) for x in xs)

    return covers(ta, tb) or covers(tb, ta)


def _matched_names(
    user: list[Parameter], op: list[Parameter], names_match: Callable[[Parameter, Parameter], bool]
) -> int:
    """Size of a maximum matching of user to operation parameters by name.

    Name matching is not transitive, so this takes augmenting paths over
    user indices in ascending order, trying operation indices in
    ascending order; the count is the true maximum regardless of
    parameter order.
    """
    adjacency = [[j for j, o in enumerate(op) if names_match(u, o)] for u in user]
    matched_user_for_op: list[int] = [-1] * len(op)

    def augment(u: int, visited: list[bool]) -> bool:
        for j in adjacency[u]:
            if visited[j]:
                continue
            visited[j] = True
            if matched_user_for_op[j] == -1 or augment(matched_user_for_op[j], visited):
                matched_user_for_op[j] = u
                return True
        return False

    return sum(augment(u, [False] * len(op)) for u in range(len(user)))


def _matched_datatypes(user: list[Parameter], op: list[Parameter]) -> int:
    """Size of a maximum matching of user to operation parameters by datatype.

    Datatypes match by equality, an equivalence relation, so the maximum
    matching is the multiset intersection: each user datatype takes one
    equal operation datatype while any is left.
    """
    left = [o.datatype for o in op]
    matched = 0
    for u in user:
        if u.datatype in left:
            left.remove(u.datatype)
            matched += 1
    return matched


def _count_points(
    n_user_in: int, n_op_in: int, n_user_out: int, n_op_out: int, table: ScoreTable
) -> tuple[int, int]:
    """The nb_input and nb_output components."""
    if n_user_in == n_op_in:
        nb_input = table.nb_equal
    elif n_user_in > n_op_in:
        nb_input = table.nb_favorable  # extra user inputs may be optional to the op
    else:
        nb_input = table.nb_unfavorable
    if n_user_out == n_op_out:
        nb_output = table.nb_equal
    elif n_user_out < n_op_out:
        nb_output = table.nb_favorable  # surplus outputs can be filtered by the user
    else:
        nb_output = table.nb_unfavorable
    return nb_input, nb_output


def _string_points(matched: int, comparable: int, table: ScoreTable) -> int:
    """A string component: matched of comparable slots (the shorter list's length)."""
    return table.string_same * matched + table.string_different * (comparable - matched)


def min_acceptable_score(
    n_user_inputs: int, n_op_inputs: int, n_user_outputs: int, table: ScoreTable
) -> int:
    """Gate threshold: the score of the weakest acceptable candidate.

    That candidate covers every requested output (plus possibly more) and
    matches whatever inputs both sides share: unfavorable input count +
    favorable output count + name and datatype points for min(inputs)
    matched inputs and all requested outputs.
    """
    return (
        table.nb_unfavorable
        + table.nb_favorable
        + 2 * table.string_same * min(n_user_inputs, n_op_inputs)
        + 2 * table.string_same * n_user_outputs
    )


def score_functional(
    requirement: TaskRequirement,
    op: Operation,
    lexicon: SynonymLexicon,
    table: ScoreTable = DEFAULT_SCORE_TABLE,
) -> FunctionalScore:
    """Score one operation against one task requirement."""
    n_user_in, n_op_in = len(requirement.inputs), len(op.inputs)
    n_user_out, n_op_out = len(requirement.outputs), len(op.outputs)
    nb_input, nb_output = _count_points(n_user_in, n_op_in, n_user_out, n_op_out, table)
    comparable_in, comparable_out = min(n_user_in, n_op_in), min(n_user_out, n_op_out)

    def names_match(u: Parameter, o: Parameter) -> bool:
        return _names_match(u.name, o.name, lexicon)

    str_input_name = _string_points(
        _matched_names(requirement.inputs, op.inputs, names_match), comparable_in, table
    )
    str_output_name = _string_points(
        _matched_names(requirement.outputs, op.outputs, names_match), comparable_out, table
    )
    str_input_datatype = _string_points(
        _matched_datatypes(requirement.inputs, op.inputs), comparable_in, table
    )
    str_output_datatype = _string_points(
        _matched_datatypes(requirement.outputs, op.outputs), comparable_out, table
    )

    total = (
        nb_input
        + nb_output
        + str_input_name
        + str_output_name
        + str_input_datatype
        + str_output_datatype
    )
    min_acceptable = min_acceptable_score(n_user_in, n_op_in, n_user_out, table)
    return FunctionalScore(
        nb_input=nb_input,
        nb_output=nb_output,
        str_input_name=str_input_name,
        str_output_name=str_output_name,
        str_input_datatype=str_input_datatype,
        str_output_datatype=str_output_datatype,
        total=total,
        min_acceptable=min_acceptable,
        passed=total >= min_acceptable,
    )


class GatedCandidates(list):
    """The (service, operation, score) triples that passed the gate, in
    registry order, and whether any category matched the task's context.

    context_matched tells an empty result's two causes apart: no category
    matched, or no operation of a matching category passed.
    """

    context_matched: bool = False


_UNSEEN = object()  # a memo miss, told apart from a stored None


def _reachable_terms(names: list[str], lexicon: SynonymLexicon) -> set[str]:
    """Every term that terms_match pairs with a token of one of the names.

    That is each token, its synonyms and their synonyms: the lexicon is
    symmetric-closed, so syn(a) and syn(b) intersect exactly when b is a
    synonym of some synonym of a. A name with no tokens adds nothing.
    """
    reachable: set[str] = set()
    for name in names:
        for token in extract_keywords(name):
            reachable.add(token)
            for synonym in lexicon.synonyms(token):
                reachable.add(synonym)
                reachable.update(lexicon.synonyms(synonym))
    return reachable


def _unreached_may_pass(
    n_user_in: int, n_op_in: int, n_user_out: int, n_op_out: int, table: ScoreTable
) -> bool:
    """Can an operation whose output names match no requested output pass?

    Its output-name component is exactly string_different per comparable
    output slot, so its best score is the count points plus string_same
    for every datatype slot and every input-name slot, plus that. It
    depends only on the counts.
    """
    comparable_in, comparable_out = min(n_user_in, n_op_in), min(n_user_out, n_op_out)
    nb_input, nb_output = _count_points(n_user_in, n_op_in, n_user_out, n_op_out, table)
    best = (
        nb_input
        + nb_output
        + table.string_same * (2 * comparable_in + comparable_out)
        + table.string_different * comparable_out
    )
    return best >= min_acceptable_score(n_user_in, n_op_in, n_user_out, table)


def _staged_score(
    user_in: list[Parameter],
    user_out: list[Parameter],
    op: Operation,
    table: ScoreTable,
    names_match: Callable[[Parameter, Parameter], bool],
    outputs_reached: bool,
) -> FunctionalScore | None:
    """The gate on one operation: score_functional's result if it passes,
    else None.

    It runs the counts, then the datatypes, then the output names, then
    the input names. Before each stage after the first, the points so far
    plus string_same for every slot still to compare bound SCORE_FP from
    above, and once the bound is below SCORE_min_FP the rest is skipped.
    The bound is exact: a string component scores
    string_same*m + string_different*(c-m) for m of c comparable slots,
    which is at most string_same*c because ScoreTable.validate enforces
    string_same > string_different. When outputs_reached is false, no
    output term of the operation is reachable from a requested output
    name, so no output name matches and the output-name stage counts 0
    without comparing. The result reads only op.shape and the reach flag,
    which reads only output names, so gate_candidates shares it between
    operations of one shape.
    """
    n_user_in, n_op_in = len(user_in), len(op.inputs)
    n_user_out, n_op_out = len(user_out), len(op.outputs)
    comparable_in, comparable_out = min(n_user_in, n_op_in), min(n_user_out, n_op_out)
    best_inputs = table.string_same * comparable_in
    best_names = best_inputs + table.string_same * comparable_out
    min_acceptable = min_acceptable_score(n_user_in, n_op_in, n_user_out, table)

    nb_input, nb_output = _count_points(n_user_in, n_op_in, n_user_out, n_op_out, table)
    points = nb_input + nb_output
    if points + 2 * best_names < min_acceptable:
        return None

    str_input_datatype = _string_points(
        _matched_datatypes(user_in, op.inputs), comparable_in, table
    )
    str_output_datatype = _string_points(
        _matched_datatypes(user_out, op.outputs), comparable_out, table
    )
    points += str_input_datatype + str_output_datatype
    if points + best_names < min_acceptable:
        return None

    matched_out = _matched_names(user_out, op.outputs, names_match) if outputs_reached else 0
    str_output_name = _string_points(matched_out, comparable_out, table)
    points += str_output_name
    if points + best_inputs < min_acceptable:
        return None

    str_input_name = _string_points(
        _matched_names(user_in, op.inputs, names_match), comparable_in, table
    )
    total = points + str_input_name
    if total < min_acceptable:
        return None
    return FunctionalScore(
        nb_input=nb_input,
        nb_output=nb_output,
        str_input_name=str_input_name,
        str_output_name=str_output_name,
        str_input_datatype=str_input_datatype,
        str_output_datatype=str_output_datatype,
        total=total,
        min_acceptable=min_acceptable,
        passed=True,
    )


def gate_candidates(
    requirement: TaskRequirement,
    registry: ServiceRegistry,
    lexicon: SynonymLexicon,
    table: ScoreTable = DEFAULT_SCORE_TABLE,
) -> GatedCandidates:
    """Context filter + functional gate over the whole registry.

    Every operation of every service in every context-matching category
    goes through the gate in two steps, cheapest first:

    - the reach check: if none of the operation's output_terms is
      reachable from a requested output name, its output names cannot
      match, and the operation is dropped when even its best score with
      them unmatched is below the minimum (once per count pair);
    - _staged_score on the survivors, once per operation shape.

    Those at or above their minimum acceptable score are returned, in
    registry order, each with the score score_functional gives it.
    """
    table.validate()  # the pruning bounds need string_same > string_different
    user_in, user_out = requirement.inputs, requirement.outputs
    n_user_in, n_user_out = len(user_in), len(user_out)
    reachable = _reachable_terms([p.name for p in user_out], lexicon)
    # Name comparisons repeat across operations, and operations share
    # count pairs and shapes, which is all the two steps read. Every memo
    # lives for one call; a dropped shape is stored as None.
    memo: dict[tuple[str, str], bool] = {}

    def names_match(u: Parameter, o: Parameter) -> bool:
        key = (u.name, o.name)
        matched = memo.get(key)
        if matched is None:
            matched = memo[key] = _names_match(u.name, o.name, lexicon)
        return matched

    unreached_by_counts: dict[tuple[int, int], bool] = {}
    by_shape: dict[tuple, FunctionalScore | None] = {}

    gated = GatedCandidates()
    for category in registry.categories:
        if not match_context(requirement, category, lexicon):
            continue
        gated.context_matched = True
        for service in category.services:
            for op in service.operations:
                reached = not op.output_terms.isdisjoint(reachable)
                if not reached:
                    counts = (len(op.inputs), len(op.outputs))
                    may_pass = unreached_by_counts.get(counts)
                    if may_pass is None:
                        may_pass = unreached_by_counts[counts] = _unreached_may_pass(
                            n_user_in, counts[0], n_user_out, counts[1], table
                        )
                    if not may_pass:
                        continue
                score = by_shape.get(op.shape, _UNSEEN)
                if score is _UNSEEN:
                    score = by_shape[op.shape] = _staged_score(
                        user_in, user_out, op, table, names_match, reached
                    )
                if score is not None:
                    gated.append((service, op, score))
    return gated
