"""One cold pass of the paper suite in a fresh interpreter.

The ``paper-suite`` workload interleaves these with its warm passes, so the
cold samples of a run are spread over its whole length and each starts, as
a user's run does, with empty module memos.  Prints one JSON document on
standard output.

    python3 perfbench/cold.py <seed> [--tiny]
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

if __name__ == "__main__":
    import paper_suite

    print(json.dumps(paper_suite.cold_pass(int(sys.argv[1]),
                                           "--tiny" in sys.argv[2:])))
