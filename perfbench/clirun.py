"""Run one specsing CLI command in this interpreter with the tracer on.

The import of the package is one span, the command another; the profile
(and the raw spans, next to it) are written even if the command raises.

Usage: python perfbench/clirun.py PROFILE.json SUBCOMMAND [ARGS...]
"""

import importlib
import json
import sys

import tracing


def main():
    profile_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()

    def session():
        cli = tracer.wrap(tracing.IMPORT_SPAN, importlib.import_module,
                          layer="import")("specsing.cli")
        tracing.install(tracer)
        return cli.main(argv)

    try:
        return tracer.run_op(session)
    finally:
        with open(profile_path, "w") as fh:
            json.dump(tracing.profile(tracer), fh)
        tracer.write(profile_path[:-len(".json")] + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
