"""Cold set-up of polycam in a fresh interpreter.

Usage: ``python3 setup_child.py SRC_DIR M,n [M,n ...]``. Prints one JSON
object: the time to import ``polycam`` and, per algebra, the time of its
first construction (which builds its monomial and product tables).
"""

import json
import sys
import time


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    began = time.perf_counter()
    import polycam
    import_s = time.perf_counter() - began
    tables = {}
    for token in argv[2:]:
        n_vars, order = (int(x) for x in token.split(","))
        began = time.perf_counter()
        polycam.TaylorPoly.zero(polycam.AlgebraConfig(n_vars, order))
        tables[f"m{n_vars}o{order}"] = time.perf_counter() - began
    print(json.dumps({"import_s": import_s, "tables_s": tables,
                      "polycam_file": polycam.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
