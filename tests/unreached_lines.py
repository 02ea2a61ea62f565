"""List the lines and branch directions inside functions of `src/gmemsim`
that no tier-1 test reaches.

Runs pytest in this process under `sys.settrace` and records every line of
`src/gmemsim` that executes and, from per-opcode events, which successor
ran after each conditional jump and `FOR_ITER`.  It prints, as `path:line:
source`, each line of a function (lambdas, comprehensions and generator
expressions included) that never ran, and as `path:line: source  [operand
never outcome]` each branch direction never taken, unless `ARTIFACTS`
names it; it also names each `ARTIFACTS` entry left with no untaken
direction, so that the list holds only what no input can take.  Module and
class bodies run at import and are not listed.  Lines and directions
reached only in a subprocess that a test starts count as unreached.

    python tests/unreached_lines.py [pytest arguments]

With no arguments it runs the whole tier-1 suite.  The exit status is
pytest's when pytest fails, else 1 when anything is listed, else 0.  pytest
does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import dis
import inspect
import sys
import threading
import types
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmemsim"

# opname -> (outcome that jumps, outcome that falls through)
OUTCOMES = {
    **{f"POP_JUMP_{way}_IF_{c}": o for way in ("FORWARD", "BACKWARD")
       for c, o in (("TRUE", ("true", "false")), ("FALSE", ("false", "true")),
                    ("NONE", ("None", "not None")),
                    ("NOT_NONE", ("not None", "None")))},
    "JUMP_IF_TRUE_OR_POP": ("true", "false"),
    "JUMP_IF_FALSE_OR_POP": ("false", "true"),
    "FOR_ITER": ("exhausted", "iterated"),
}

# The directions that no input can take, each one a path that Python 3.11
# compiles into its statement, by (file, function, the test's source line
# stripped, label), with the reason no input takes it.
WRITES = [("cli.py", "_write_report", 'with open(path, "w") as f:'),
          ("cli.py", "_write_traces",
           'with open(os.path.join(out_dir, name), "w", newline="") as f:'),
          ("cli.py", "cmd_profile", 'with open(out, "w") as f:'),
          ("cli.py", "cmd_compare",
           'with open(csv_path, "w", newline="") as f:')]
READS = [("cli.py", "_load_experiment", "with open(path) as f:"),
         ("cli.py", "cmd_compare", "with open(exp.base_config) as f:"),
         ("config.py", "load_config", "with open(path) as f:"),
         ("workload.py", "load_workload", "with open(source) as f:")]
ARTIFACTS: dict[tuple[str, str, str, str], str] = {
    # the path of a `with` block that an exception takes
    **{(*site, "`__exit__` never true"):
       "a file object's `__exit__` returns None, never true"
       for site in WRITES + READS},
    **{(*site, "`__exit__` never false"):
       "the block writes values the program made itself: only a host I/O "
       "error raises there, never an input"
       for site in WRITES},
    # the fall-through of an `except` clause re-raises what it does not match
    ("cli.py", "cmd_compare",
     "except (ValueError, AssertionError, OSError) as e:",
     "`except` match never false"):
        "a cell raises only a ValueError (bad input), an OSError (an "
        "unreadable file) or an AssertionError (an engine check)",
    ("cli.py", "main",
     "except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:",
     "`except` match never false"):
        "past the AssertionError clause, a command raises only a ValueError "
        "or an OSError",
    ("loader.py", "_convert", "except ValueError:",
     "`except` match never false"): "`_convert` raises only ValueError",
    ("loader.py", "_convert", "except OverflowError:",
     "`except` match never false"):
        "`math.isinf` of an int or a float raises only OverflowError",
    # the copy of a `while` test ahead of the body
    ("engine.py", "World._phase_dispatch",
     "while progress and len(self.dispatch_log) < len(self.blocks):",
     "`progress` at loop entry never false"): "`progress` is set just before",
    ("engine.py", "World._phase_reply",
     "while (queue and drained < hw.drain_per_cycle",
     "`queue` at loop entry never false"):
        "an SM is in `replying` only with a reply queued: one overflows "
        "only past a full queue, and the overflow refills the queue",
    ("engine.py", "World._phase_reply",
     "while (queue and drained < hw.drain_per_cycle",
     "`drained < hw.drain_per_cycle` at loop entry never false"):
        "`drained` starts at 0, and `drain_per_cycle` is at least 1",
    ("workload.py", "element_runs", "while t < stop:",
     "`t < stop` at loop entry never false"):
        "`threads`, a warp's thread range, is never empty",
    ("workload.py", "gen_cpu_traffic", "while cycle < horizon:",
     "`cycle < horizon` at loop entry never false"):
        "`World` draws no CPU stream for a horizon of 0",
    # `next` over a generator expression stops at its first item
    ("sched.py", "CcwsScheduler._refill.<locals>.<genexpr>",
     "i = next(i for i, w in enumerate(self.pending) if w in self.ready)",
     "loop never exhausted"):
        "`_pending_ready` has just found a ready warp in `pending`",
}


class Direction(NamedTuple):
    """One direction of a branch: the successor run after the instruction
    at `key` (its first `EXTENDED_ARG` prefix, where the trace event comes)
    and its label, `operand never outcome`."""
    key: int
    successor: int
    line: int
    label: str


def branch_directions(code: types.CodeType, source: list[str]) -> list[Direction]:
    """Both directions of every conditional jump and `FOR_ITER` in `code`
    itself (not its nested code objects), in bytecode order.

    Python 3.11 reports the opcode event of an instruction with
    `EXTENDED_ARG` prefixes at the first prefix, so that offset keys it.
    The label of a jump in the copy of a `while` test that 3.11 compiles
    ahead of the loop body says `at loop entry`."""
    instrs = list(dis.get_instructions(code))
    entry = loop_entry_copies(instrs)
    out, prefix, prev = [], None, None
    for ins, nxt in zip(instrs, instrs[1:]):
        if ins.opname == "EXTENDED_ARG":
            prefix = ins.offset if prefix is None else prefix
            continue
        key, prefix = (ins.offset if prefix is None else prefix), None
        outcomes = OUTCOMES.get(ins.opname)
        if outcomes is not None:
            operand = _operand(ins, prev, source)
            if ins.offset in entry:
                operand += " at loop entry"
            for succ, outcome in zip((ins.argval, nxt.offset), outcomes):
                out.append(Direction(key, succ, ins.positions.lineno,
                                     f"{operand} never {outcome}"))
        prev = ins
    return out


def loop_entry_copies(instrs: list[dis.Instruction]) -> set[int]:
    """The offsets of the instructions of each `while` test's entry copy.

    3.11 compiles the test twice: ahead of the body, and at its bottom,
    ending in a backward jump to the body.  Walking back from that jump and
    from the body's start together, the instructions at the same source
    positions are the two copies."""
    index = {ins.offset: i for i, ins in enumerate(instrs)}
    out = set()
    for bottom, ins in enumerate(instrs):
        if ins.opname.startswith("POP_JUMP_BACKWARD_IF"):
            i, j = index[ins.argval] - 1, bottom
            while i >= 0 and instrs[i].positions == instrs[j].positions:
                out.add(instrs[i].offset)
                i, j = i - 1, j - 1
    return out


def _operand(ins, prev, source: list[str]) -> str:
    """What `ins` tests: the source text of the instruction before it, or
    else of `ins`, whichever first sits on one line."""
    if ins.opname == "FOR_ITER":
        return "loop"
    if prev.opname == "WITH_EXCEPT_START":
        return "`__exit__`"
    if prev.opname == "CHECK_EXC_MATCH":
        return "`except` match"
    for p in (prev.positions, ins.positions):
        if p.lineno and p.lineno == p.end_lineno:
            return f"`{source[p.lineno - 1][p.col_offset:p.end_col_offset]}`"
    return "condition"


def function_codes(path: Path, text: str | None = None):
    """Every function code object (lambdas, comprehensions and generator
    expressions included) compiled from `path`, or from `text` under that
    name."""
    text = path.read_text() if text is None else text
    stack = [compile(text, str(path), "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            yield code


class Tracer:
    """Records the lines run and the branch directions taken in the
    functions of the given sources, keyed by file name.  A frame gets
    opcode events only while its code has a direction left to take."""

    def __init__(self, sources: dict[str, str]):
        self.sources = {name: text.splitlines() for name, text in sources.items()}
        self.codes = {name: list(function_codes(Path(name), text))
                      for name, text in sources.items()}
        self.lines = {name: {line for c in codes for _, _, line in c.co_lines()
                             if line}
                      for name, codes in self.codes.items()}
        self.directions = {c: branch_directions(c, self.sources[name])
                           for name, codes in self.codes.items() for c in codes}
        self.keys = {c: {d.key for d in ds} for c, ds in self.directions.items()}
        # per code object, the (key, successor) directions not yet taken
        self.pending = {c: {(d.key, d.successor) for d in ds}
                        for c, ds in self.directions.items()}
        self.reached: dict[str, set[int]] = {name: set() for name in sources}
        self.taken: set[tuple] = set()

    def trace(self, frame, event, arg):
        code = frame.f_code
        hit = self.reached.get(code.co_filename)
        if hit is None:
            return None
        hit.add(frame.f_lineno)
        pending = self.pending.get(code)
        # a frame whose code has no direction left to take needs no opcode
        # events; a resumed generator's frame may have had them
        frame.f_trace_opcodes = bool(pending)
        if not pending:
            def lines(frame, event, arg):
                hit.add(frame.f_lineno)
                return lines
            return lines
        keys, taken = self.keys[code], self.taken
        last = None

        def opcodes(frame, event, arg):
            nonlocal last
            if event == "opcode":
                offset = frame.f_lasti
                if last is not None:
                    taken.add((code, last, offset))
                    pending.discard((last, offset))
                last = offset if offset in keys else None
            else:
                hit.add(frame.f_lineno)
            return opcodes
        return opcodes

    def untaken(self, name: str) -> list[tuple[types.CodeType, Direction]]:
        """The directions never taken in file `name`, by line."""
        return sorted(((c, d) for c in self.codes[name]
                       for d in self.directions[c]
                       if (c, d.key, d.successor) not in self.taken),
                      key=lambda cd: (cd[1].line, cd[1].key, cd[1].successor))

    def __enter__(self):
        # a tier-1 test traces a toy under this tool's own run
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


class NoDeadline:
    """Tracing slows a test many times over, so no hypothesis example may
    fail for taking too long."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("unreached_lines", deadline=None)
        settings.load_profile("unreached_lines")


def main(args: list[str]) -> int:
    tracer = Tracer({str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))})
    with tracer:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(ROOT)])], plugins=[NoDeadline])
    listed, allowed = 0, set()
    for name, source in tracer.sources.items():
        where = Path(name).relative_to(ROOT)
        unreached = tracer.lines[name] - tracer.reached[name]
        items = [(line, f"{where}:{line}: {source[line - 1].strip()}")
                 for line in unreached]
        for code, d in tracer.untaken(name):
            text = source[d.line - 1].strip()
            key = (where.name, code.co_qualname, text, d.label)
            if key in ARTIFACTS:
                allowed.add(key)
            elif d.line not in unreached:  # its directions go without saying
                items.append((d.line, f"{where}:{d.line}: {text}  [{d.label}]"))
        for _, text in sorted(items, key=lambda item: item[0]):
            print(text)
            listed += 1
    # an entry whose direction some test takes, or that names none
    for key in sorted(ARTIFACTS.keys() - allowed):
        print(f"{Path(__file__).relative_to(ROOT)}: ARTIFACTS entry {key} "
              "names no untaken direction")
        listed += 1
    return status or int(listed > 0)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
