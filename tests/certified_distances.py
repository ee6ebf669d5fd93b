"""Check every supported code's certified distance against
perfbench/reference.py's independent Gray walk: under both presets, at each
message length codes.MIN_MESSAGE_LEN..codes.MAX_MESSAGE_LEN.

Run from the repository root, in a fresh interpreter so that every code is
searched here rather than read from a cache:

    PYTHONPATH=src python tests/certified_distances.py

Prints one line per preset and exits 1 on a mismatch.  The search
certifies each attempt with `codes._min_weight`, which takes the lane walk
at the longer lengths; this check walks each kept code apart from it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reference import min_distance  # noqa: E402

from certlab.codes import (  # noqa: E402
    DEFAULT_CODE_PARAMS,
    MAX_MESSAGE_LEN,
    MIN_MESSAGE_LEN,
    REDUCTION_CODE_PARAMS,
    get_code,
)


def main() -> int:
    for name, params in (("default", DEFAULT_CODE_PARAMS), ("reduction", REDUCTION_CODE_PARAMS)):
        distances = []
        for m in range(MIN_MESSAGE_LEN, MAX_MESSAGE_LEN + 1):
            code = get_code(params, m)
            expected = min_distance(code.generator_rows)
            if code.distance != expected:
                print(f"{name} preset, m={m}: certified distance {code.distance} != reference {expected}")
                return 1
            distances.append(code.distance)
        print(f"{name} preset (c={params.c}): distances {distances} agree at m={MIN_MESSAGE_LEN}..{MAX_MESSAGE_LEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
