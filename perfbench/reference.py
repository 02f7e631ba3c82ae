"""Reference task: fixed work that measures how fast the host runs right now.

The runner times this between CLI children and divides the CLI's times by
it, which cancels the machine's slow and fast phases. It uses only the
standard library and none of decoyeval, so a change to the program never
changes it. The work (JSON, dicts of strings, a sort) is the same kind of
interpreter work as the CLI's parsing. It takes about 1 s on an idle core.
"""

import json
import random

rng = random.Random(0)
lines = [json.dumps({"id": i, "docs": [f"d{rng.randrange(10**6)}" for _ in range(10)],
                     "score": rng.random()}) for i in range(30000)]
counts: dict[str, int] = {}
for line in lines:
    for doc in json.loads(line)["docs"]:
        counts[doc] = counts.get(doc, 0) + 1
ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
assert sum(n for _, n in ranked) == 10 * len(lines)
