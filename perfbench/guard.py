"""Write ``perfbench/guard.json``, the stored verdicts of the guard sets::

    python3 perfbench/guard.py

Scans both guard sets (``inputs.guard_scripts`` and
``inputs.guard_8k_scripts``) with ``BatchScanner(n_workers=1)`` under the
fixture model and stores ``name -> [label, path_count]`` for each, with
the model fingerprint.  Every benchmark run compares its answers for the
guard sets with this file, so rewrite it only with a change that is meant
to alter verdicts or path counts.
"""

from __future__ import annotations

import json
import re
import sys

from host import BenchError, check_checkout, fixture_model


def main() -> int:
    try:
        check_checkout()
        import common
        from inputs import guard_8k_scripts, guard_scripts

        model, fingerprint = fixture_model()
        sets = {"guard": guard_scripts(), "guard8k": guard_8k_scripts()}
        jobs = [{"batches": [[list(item)] for item in scripts], "warm": [], "cache": False, "trace": False}
                for scripts in sets.values()]
        outputs = common.run_children("guard", model, jobs)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    stored = {"model_fingerprint": fingerprint}
    for kind, output in zip(sets, outputs):
        if any(answer["status"] != "ok" for answer in output["answers"]):
            print(f"perfbench: a {kind} script did not scan ok", file=sys.stderr)
            return 1
        stored[kind] = common.guard_table(output["answers"])
        print(f"{kind}: {len(stored[kind])} scripts, digest {common.digest(stored[kind])[:16]}")
    # One script per line: ``"name": [label, path_count]``.
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", json.dumps(stored, indent=1))
    common.GUARD.write_text(text + "\n")
    print(f"wrote {common.GUARD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
