"""The branch listing of `tests/unreached_lines.py` on a toy function: each
conditional jump and `FOR_ITER` is listed once with both successors, and a
jump behind an `EXTENDED_ARG` prefix is keyed where its trace event comes."""

import dis
from pathlib import Path

from unreached_lines import OUTCOMES, Tracer, branch_directions, function_codes

NAME = "toy.py"
# `if flag` jumps over 300 additions, farther than a one-byte argument
# reaches, so its jump takes an `EXTENDED_ARG` prefix
TOY = ("def toy(xs, flag):\n"
       "    total = 0\n"
       "    for x in xs:\n"
       "        if x:\n"
       "            total += 1\n"
       "    if flag:\n"
       + "        total += 1\n" * 300 +
       "    while total > 3:\n"
       "        total -= 2\n"
       "    return total\n")


def toy_code():
    [code] = function_codes(Path(NAME), TOY)
    return code


def branches() -> dict[int, tuple]:
    """Each branch instruction of the toy by the offset of its first code
    unit, its prefix if it has one: (opname, jump, fall-through, whether it
    is prefixed)."""
    instrs = list(dis.get_instructions(toy_code()))
    out = {}
    for before, ins, after in zip([None, *instrs], instrs, instrs[1:]):
        if ins.opname in OUTCOMES:
            prefixed = before is not None and before.opname == "EXTENDED_ARG"
            out[before.offset if prefixed else ins.offset] = (
                ins.opname, ins.argval, after.offset, prefixed)
    return out


def test_each_branch_is_listed_once_with_both_successors():
    found = branches()
    # the loop, `if x`, `if flag` and the while test's two copies
    assert sorted(op for op, *_ in found.values()) == [
        "FOR_ITER", "POP_JUMP_BACKWARD_IF_TRUE", "POP_JUMP_FORWARD_IF_FALSE",
        "POP_JUMP_FORWARD_IF_FALSE", "POP_JUMP_FORWARD_IF_FALSE"]
    directions = branch_directions(toy_code(), TOY.splitlines())
    listed = {}
    for d in directions:
        listed.setdefault(d.key, []).append(d.successor)
    assert listed == {key: [jump, fall] for key, (_, jump, fall, _)
                      in found.items()}
    # only the while test's first copy is ahead of the body
    assert [d.label for d in directions if "at loop entry" in d.label] == [
        "`total > 3` at loop entry never false",
        "`total > 3` at loop entry never true"]


def test_the_trace_event_of_a_prefixed_jump_maps_back_to_it():
    [key] = [key for key, (*_, prefixed) in branches().items() if prefixed]
    namespace = {}
    exec(compile(TOY, NAME, "exec", dont_inherit=True), namespace)
    with Tracer({NAME: TOY}) as tracer:
        assert namespace["toy"]([1, 0], True) == 3
        assert namespace["toy"]([], False) == 0
    _, jump, fall, _ = branches()[key]
    assert {(k, succ) for _, k, succ in tracer.taken if k == key} \
        == {(key, jump), (key, fall)}
    # the two calls take every direction and run every line
    assert not tracer.untaken(NAME)
    assert tracer.reached[NAME] == tracer.lines[NAME]
    # so no direction is left to take, and a later call's frame gets the
    # line tracer alone
    assert tracer.pending == {toy_code(): set()}
