"""Print the line count of each ``src/ctckit/`` module and every option, with totals.

    python3 tools/size.py [CHECKOUT]

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout; the package is imported from its ``src/``.  Lines are
counted as ``wc -l`` counts them.  An option is every defaulted or variadic
parameter of every callable in ``ctckit.__all__``, plus every flag of every
``ctckit`` subcommand.  A class counts through its constructor, so a
dataclass counts its defaulted fields; the parameters of its methods (such
as ``HermitianBasis.from_traceless(trace=)``) and the ``*args, **kwargs``
an exception class inherits from ``RuntimeError`` do not count.  Output is
one line per module, then one line per option, then the totals.
"""

import argparse
import inspect
import sys
from pathlib import Path


def defaulted_parameters(namespace):
    """``name(parameter=)`` of each defaulted or variadic parameter in ``__all__``."""
    out = []
    for name in namespace.__all__:
        obj = getattr(namespace, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        for p in inspect.signature(obj).parameters.values():
            if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                out.append(f"{name}({p.name}=)")
    return out


def cli_flags(parser):
    """``subcommand --flag`` of each flag of each subcommand, ``--help`` aside."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [f"{command} {action.option_strings[-1]}"
            for command, subparser in sub.choices.items() for action in subparser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    import ctckit
    from ctckit.cli import build_parser

    total = 0
    for path in sorted((root / "src" / "ctckit").glob("*.py")):
        lines = len(path.read_bytes().splitlines())
        total += lines
        print(f"lines {path.name} {lines}")
    parameters, flags = defaulted_parameters(ctckit), cli_flags(build_parser())
    for option in (*parameters, *flags):
        print(f"option {option}")
    print(f"lines total {total}")
    print(f"options parameters {len(parameters)} flags {len(flags)} "
          f"total {len(parameters) + len(flags)}")


if __name__ == "__main__":
    main(sys.argv[1:])
