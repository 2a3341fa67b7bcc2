"""Fail unless every named file parses as strict JSON: no NaN or Infinity.

    python .github/strict_json.py REPORT.json [REPORT.json ...]
"""

import json
import sys


def reject(token):
    raise ValueError(f"non-finite number {token} in the report")


for path in sys.argv[1:]:
    with open(path) as f:
        try:
            json.load(f, parse_constant=reject)
        except ValueError as exc:
            sys.exit(f"{path}: {exc}")
