"""Lines of the package that no shipped run executes.

Traces ``src/deadbeat_observer`` line by line over every golden run (each
shipped config under each command, see ``golden.py``) and over one pass of
each benchmark workload in ``perfbench/workloads.py`` (one unit of each of
its kinds), then prints every line with bytecode that never ran as
``module:line  source`` and exits 1 if there is any:

    python tests/reach.py

It takes about 9 s (6.5 s of it the runs themselves) on a 2-core x86-64
Xeon, too long for the test suite, so it is a script, run by hand like
``golden.py --against``.

Not counted: docstrings; ``raise`` statements and the blocks that end in
one; ``except`` clauses; the exception builders (``errors.py``,
``window._GramOverflow``, ``observer._diverged`` and
``observer._left_domain``); the ``__main__`` guard; and the safety branches
of SAFETY_BRANCHES, each with the reason no shipped run reaches it.  An
entry of SAFETY_BRANCHES that matches no statement is reported too.
"""

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "deadbeat_observer"

# (module, enclosing function, statement): why no shipped run reaches it
SAFETY_BRANCHES = {
    ("applications.py", "in_domain", "return False"):
        "the frequency model's origin is outside its domain; no shipped signal passes "
        "through y = 0 with the estimate at x1 = 0",
    ("cli.py", "cmd_simulate", "max_rel = None"):
        "a non-finite post-window error is reported as null; every shipped run stays finite",
    ("observer.py", "observer_step", "degenerate_events += 1"):
        "the held streaming reset; no shipped run streams a degenerate window",
}
EXCEPTION_BUILDERS = {("window.py", "_GramOverflow"), ("observer.py", "_diverged"),
                      ("observer.py", "_left_domain")}


def code_lines(code):
    """The lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def _span(node):
    return set(range(node.lineno, node.end_lineno + 1))


def exempt_lines(module, source, stale):
    """The lines of ``module`` that are not counted; removes from ``stale`` each
    SAFETY_BRANCHES key that matches a statement."""
    if module == "errors.py":
        return set(range(1, source.count("\n") + 2))
    tree = ast.parse(source)
    exempt = set()
    safety_functions = {key[:2] for key in SAFETY_BRANCHES}

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if (module, node.name) in EXCEPTION_BUILDERS:
                exempt.update(_span(node))
                return
            function = node.name
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                exempt.update(_span(first))
        if isinstance(node, ast.ExceptHandler):
            exempt.update(_span(node))
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            exempt.update(_span(node))
        for block in ("body", "orelse", "finalbody"):
            stmts = getattr(node, block, None)
            if isinstance(stmts, list) and stmts and isinstance(stmts[-1], ast.Raise):
                for stmt in stmts:
                    exempt.update(_span(stmt))
        if isinstance(node, ast.stmt) and (module, function) in safety_functions:
            key = (module, function, ast.get_source_segment(source, node))
            if key in SAFETY_BRANCHES:
                exempt.update(_span(node))
                stale.discard(key)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return exempt


def trace_runs():
    """{resolved file name: lines run} of the package over the golden runs and one
    pass of each benchmark workload; exits if a workload unit fails its check."""
    reached = {}
    package = {str(path.resolve()) for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name in reached:
            return local
        if name in package:
            reached[name] = set()
            return local
        return None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.settrace(call)
    try:
        import numpy as np

        import golden
        import pace
        from deadbeat_observer import applications, cli, numerics, observer, plant, window
        from workloads import WORKLOADS

        for name in golden.run_names():
            golden.run(name)
        pkg = {"applications": applications, "cli": cli, "numerics": numerics,
               "observer": observer, "plant": plant, "window": window}
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory() as workdir:
                wl = workload(pkg, np.random.default_rng(0), ROOT, workdir, pace.Pace())
                for _ in wl.KINDS:
                    kind, outcome = wl.unit()
                    if wl.check(kind, outcome)[1]:
                        sys.exit(f"workload {name}: a {kind} unit failed its check")
    finally:
        sys.settrace(None)
    return reached


def main():
    reached = trace_runs()
    stale = set(SAFETY_BRANCHES)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        candidates = code_lines(compile(source, str(path), "exec"))
        ran = reached.get(str(path.resolve()), set())
        for line in sorted(candidates - ran - exempt_lines(path.name, source, stale)):
            missed.append(f"{path.name}:{line}  {lines[line - 1].strip()}")
    for key in sorted(stale):
        missed.append("safety branch matches no statement: {}:{} {!r}".format(*key))
    print("\n".join(missed) if missed else "every counted line of the package ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
