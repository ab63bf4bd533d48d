"""Write each run report without its run block to <report>.body, as json.dumps with indent 2.

The run block holds timings and the command line, which differ between
runs, so two runs of one config and seed must give the same body bytes:

    python .github/report_body.py REPORT.json [REPORT.json ...]
"""

import json
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        body = {key: value for key, value in json.load(f).items() if key != "run"}
    with open(path + ".body", "w") as f:
        json.dump(body, f, indent=2)
