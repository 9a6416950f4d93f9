"""Check that every line of a JSON-lines file is strict JSON.

Usage: python .github/strict_json.py FILE

Python's json module reads and writes NaN, Infinity and -Infinity, which
JSON does not allow. This exits 1, naming the file, its line and the
constant, at the first line that holds one or is not JSON at all.
"""

import json
import sys


def refuse(constant: str):
    raise ValueError(f"{constant} is not JSON")


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                json.loads(line, parse_constant=refuse)
            except ValueError as error:
                print(f"{path}:{number}: {error}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
