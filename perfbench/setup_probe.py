"""Set-up probe: import ``thrcalc.cli``, then load and validate description
files, and exit.  ``run.py`` times this script from a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR JSON_LIST

``JSON_LIST`` is a JSON list of ``["ring", path]``, ``["monoid", path]``
and ``["map", source, target, map]`` entries.
"""

import json
import sys


def main(argv):
    sys.path.insert(0, argv[1])
    import thrcalc.cli  # noqa: F401  (the import is part of set-up)
    from thrcalc.involutive_algebra import (
        load_description,
        monoid_from_description,
        ring_from_description,
        ring_hom,
    )

    def ring(path):
        return ring_from_description(load_description(path), where=path)

    for kind, *paths in json.loads(argv[2]):
        if kind == "ring":
            ring(paths[0])
        elif kind == "monoid":
            monoid_from_description(load_description(paths[0]), where=paths[0])
        elif kind == "map":
            source, target, map_path = paths
            rows = [tuple(e) for e in load_description(map_path)["map"]]
            ring_hom(ring(source), ring(target), rows, where=map_path)
        else:
            raise SystemExit(f"unknown description kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
