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
from typing import Callable, NamedTuple, Sequence

from .bpmn import TaskRequirement
from .errors import ConfigError
from .lexicon import SynonymLexicon, extract_keywords, keyword_sets_match, keywords_cover
from .registry import Operation, Parameter, ServiceCategory, ServiceRegistry, WebService, parameter_shape


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
    return keywords_cover(ta, tb, lexicon) or keywords_cover(tb, ta, lexicon)


def _matched_names(user: Sequence, op: Sequence, names_match: Callable[..., bool]) -> int:
    """Size of a maximum matching of user to operation parameters by name.

    The parameters are compared only through names_match, so they may be
    given as Parameters or as their names, with a names_match to suit.

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


def _matched_datatypes(user: Sequence[str], op: Sequence[str]) -> int:
    """Size of a maximum matching of user to operation parameter datatypes.

    Datatypes match by equality, an equivalence relation, so the maximum
    matching is the multiset intersection: each user datatype takes one
    equal operation datatype while any is left.
    """
    left = list(op)
    matched = 0
    for u in user:
        if u in left:
            left.remove(u)
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

    def datatypes(parameters: list[Parameter]) -> list[str]:
        return [p.datatype for p in parameters]

    str_input_name = _string_points(
        _matched_names(requirement.inputs, op.inputs, names_match), comparable_in, table
    )
    str_output_name = _string_points(
        _matched_names(requirement.outputs, op.outputs, names_match), comparable_out, table
    )
    str_input_datatype = _string_points(
        _matched_datatypes(datatypes(requirement.inputs), datatypes(op.inputs)), comparable_in, table
    )
    str_output_datatype = _string_points(
        _matched_datatypes(datatypes(requirement.outputs), datatypes(op.outputs)), comparable_out, table
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


_UNSEEN = object()  # a memo miss, told apart from a stored None


def _reachable_terms(names: list[str], lexicon: SynonymLexicon) -> set[str]:
    """Every term that matches a token of one of the names: the union of
    the tokens' match sets. A name with no tokens adds nothing.
    """
    reachable: set[str] = set()
    for name in names:
        for token in extract_keywords(name):
            reachable |= lexicon.matches(token)
    return reachable


class _CountRow(NamedTuple):
    """What one (input count, output count) pair settles for one task.

    The count points, the comparable slots (the shorter list's length on
    each side) and SCORE_min_FP depend on the four counts alone, and so
    do two verdicts: may_pass, whether the count stage lets an operation
    with these counts through (its points plus string_same for every slot
    reach the minimum), and unreached_may_pass, whether one whose output
    names match no requested output still can. The latter's output-name
    component is exactly string_different per comparable output slot, so
    its best score is the count points plus string_same for every
    datatype and input-name slot, plus that.
    """

    nb_input: int
    nb_output: int
    comparable_in: int
    comparable_out: int
    min_acceptable: int
    may_pass: bool
    unreached_may_pass: bool


def _count_row(
    n_user_in: int, n_op_in: int, n_user_out: int, n_op_out: int, table: ScoreTable
) -> _CountRow:
    nb_input, nb_output = _count_points(n_user_in, n_op_in, n_user_out, n_op_out, table)
    comparable_in, comparable_out = min(n_user_in, n_op_in), min(n_user_out, n_op_out)
    min_acceptable = min_acceptable_score(n_user_in, n_op_in, n_user_out, table)
    points = nb_input + nb_output + table.string_same * 2 * comparable_in
    return _CountRow(
        nb_input,
        nb_output,
        comparable_in,
        comparable_out,
        min_acceptable,
        points + table.string_same * 2 * comparable_out >= min_acceptable,
        points + (table.string_same + table.string_different) * comparable_out >= min_acceptable,
    )


def _staged_score(
    task: tuple[Sequence[str], ...],
    shape: tuple[tuple[str, ...], ...],
    row: _CountRow,
    table: ScoreTable,
    names_match: Callable[[str, str], bool],
    outputs_reached: bool,
) -> FunctionalScore | None:
    """The gate on one operation shape: score_functional's result if it
    passes, else None.

    `shape` is the operation's parameter_shape, as OperationIndex holds
    it, `task` the task's own, and `row` the _CountRow of their counts,
    one that passes the count stage (may_pass): the gate drops the count
    pairs that fail it before any shape. It runs the datatypes, then the
    output names, then the input names. After each stage, the points so
    far plus string_same for every slot still to compare bound SCORE_FP
    from above, and once the bound is below SCORE_min_FP the rest is
    skipped. The bound is exact: a string component scores string_same*m +
    string_different*(c-m) for m of c comparable slots, which is at most
    string_same*c because ScoreTable.validate enforces string_same >
    string_different. When outputs_reached is false, no output term of the
    operation is reachable from a requested output name, so no output name
    matches and the output-name stage counts 0 without comparing. The
    result reads only the shape, the row and the reach flag, which reads
    only output names, so gate_candidates shares it between operations of
    one shape.
    """
    nb_input, nb_output, comparable_in, comparable_out, min_acceptable, _, _ = row
    best_inputs = table.string_same * comparable_in
    best_names = best_inputs + table.string_same * comparable_out

    str_input_datatype = _string_points(_matched_datatypes(task[0], shape[0]), comparable_in, table)
    str_output_datatype = _string_points(_matched_datatypes(task[1], shape[1]), comparable_out, table)
    points = nb_input + nb_output + str_input_datatype + str_output_datatype
    if points + best_names < min_acceptable:
        return None

    matched_out = _matched_names(task[3], shape[3], names_match) if outputs_reached else 0
    str_output_name = _string_points(matched_out, comparable_out, table)
    points += str_output_name
    if points + best_inputs < min_acceptable:
        return None

    str_input_name = _string_points(_matched_names(task[2], shape[2], names_match), comparable_in, table)
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
) -> list[tuple[WebService, Operation, FunctionalScore]]:
    """Context filter + functional gate over the whole registry.

    What depends on the task alone is worked out once per task: its
    parameter_shape, the terms reachable from its output names, and one
    _CountRow per count pair the matching categories hold. In every
    context-matching category, the gate then reads only the operations
    that can pass, through the category's operation_index, in two steps,
    cheapest first:

    - the count rows, whole count pairs at a time: an operation of a pair
      whose row fails the count stage cannot pass; one none of whose
      output name tokens is reachable from a requested output name cannot
      match an output name, and passes only if its row's unreached_may_pass
      says so. So the gate takes the positions under the reachable terms
      and under the count pairs whose unreached operations may pass, less
      those under the count pairs that fail, and no others;
    - _staged_score on those, in registry order, once per shape the index
      holds for them. An operation is read from the index only if it
      passes.

    Those at or above their minimum acceptable score are returned as
    (service, operation, score) triples, in registry order, each with the
    score score_functional gives it.
    """
    table.validate()  # the pruning bounds need string_same > string_different
    user_in, user_out = requirement.inputs, requirement.outputs
    n_user_in, n_user_out = len(user_in), len(user_out)
    task = parameter_shape(user_in, user_out)
    reachable = _reachable_terms(task[3], lexicon)
    # Name comparisons repeat across operations, and operations share
    # count pairs and shapes, which is all the two steps read. Every memo
    # lives for one call; a dropped shape is stored as None.
    memo: dict[tuple[str, str], bool] = {}

    def names_match(u: str, o: str) -> bool:
        key = (u, o)
        matched = memo.get(key)
        if matched is None:
            matched = memo[key] = _names_match(u, o, lexicon)
        return matched

    rows: dict[tuple[int, int], _CountRow] = {}
    by_shape: dict[tuple, FunctionalScore | None] = {}

    gated = []
    for category in registry.categories:
        if not match_context(requirement, category, lexicon):
            continue
        index = category.operation_index
        reached: set[int] = set()
        for term in reachable:
            reached.update(index.by_output_term.get(term, ()))
        positions = set(reached)
        for counts, at in index.by_counts.items():
            row = rows.get(counts)
            if row is None:
                row = rows[counts] = _count_row(n_user_in, counts[0], n_user_out, counts[1], table)
            if row.unreached_may_pass:
                positions.update(at)
            elif not row.may_pass:
                positions.difference_update(at)
        shapes = index.shapes
        for position in sorted(positions):
            shape = shapes[position]
            score = by_shape.get(shape, _UNSEEN)
            if score is _UNSEEN:
                score = by_shape[shape] = _staged_score(
                    task, shape, rows[len(shape[0]), len(shape[1])], table, names_match,
                    position in reached,
                )
            if score is not None:
                service, op = index.entries[position]
                gated.append((service, op, score))
    return gated
