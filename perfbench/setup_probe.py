"""Set-up cost of one app, measured in the fresh interpreter running this.

Usage: ``python3 perfbench/setup_probe.py <app-name> <module-to-import>``

Times importing ``repro``, building the registered app (importing its
module precompiles the unit on first build) and running ``check_app`` on
it, then prints one JSON object with the three times and the check verdict.
"""

import json
import os
import sys
import time


def main() -> None:
    app_name, app_module = sys.argv[1], sys.argv[2]
    sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t1 = time.perf_counter()
    import importlib

    importlib.import_module(app_module)
    from repro.api.registry import get_app

    get_app(app_name).build(None)
    t2 = time.perf_counter()
    from repro.check.driver import check_app

    result = check_app(app_name)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "check_s": t3 - t2,
        "check_ok": bool(result.ok),
    }))


if __name__ == "__main__":
    main()
