"""Run one grmjacobi CLI command in a fresh interpreter.

    python3 perfbench/launch.py -- ARGV...                  # plain run
    python3 perfbench/launch.py --trace-out FILE -- ARGV... # traced run
    python3 perfbench/launch.py --setup-only -- ARGV...     # set-up probe

The command goes through `grmjacobi.cli.main`, imported from the `src`
directory next to this one.  A set-up probe imports the CLI, parses ARGV,
prints `time.monotonic()` and exits, so the caller can time interpreter
start, import and argument parsing on the shared monotonic clock.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    sys.path.insert(0, str(SRC))
    import grmjacobi.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"grmjacobi imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    if opts == ["--setup-only"]:
        cli.build_parser().parse_args(cli_argv)
        print(repr(time.monotonic()))
        return 0
    if opts[:1] == ["--trace-out"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        code = tracer.run_root(cli.main, cli_argv)
        sys.stdout.flush()
        tracer.write(opts[1])
        return code
    return cli.main(cli_argv)


if __name__ == "__main__":
    sys.exit(main())
