"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 perfbench/launcher.py serve --port 0 --jobs 1 --cache-dir DIR

The wrappers go in before ``repro.cli.main`` builds the server, and so
before its pool forks the worker, which inherits them.  The arguments
reach ``repro`` unchanged.
"""

import sys

import layers

if __name__ == "__main__":
    layers.install_service(layers.Recorder())
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
