#!/usr/bin/env python3
"""Print the state-hash streams of every router configuration CI guards.

Usage: router_hash_streams.py RUN_SCENARIO_BINARY > streams.txt

Runs the `--template` scenario for one simulated hour once per router
configuration (Epidemic under the template policy and under Random
scheduling, binary and source Spray-and-Wait, Direct Delivery, First Contact,
Spray-and-Focus, MaxProp and PRoPHET) with `--hash-stream --hash-every 60`,
and prints every checkpoint as one `<label> <now_ms> <hash>` line. CI `cmp`s
the output against ci/router_hash_streams.txt; a differing byte means one of
these routers changed behaviour (or the hash definition changed).
"""

import json
import os
import subprocess
import sys
import tempfile

CONFIGS = [
    ("epidemic", "Epidemic", None),
    ("epidemic_random", "Epidemic", "Random"),
    ("snw_binary", {"SprayAndWait": {"copies": 12, "binary": True}}, None),
    ("snw_source", {"SprayAndWait": {"copies": 12, "binary": False}}, None),
    ("direct", "DirectDelivery", None),
    ("first_contact", "FirstContact", None),
    ("spray_focus", {"SprayAndFocus": {"copies": 12}}, None),
    ("maxprop", {"MaxProp": {"head_start_fraction": 0.5}}, None),
    ("prophet", {"Prophet": {"p_init": 0.75, "beta": 0.25, "gamma": 0.98,
                             "time_unit_secs": 30.0}}, None),
]


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: router_hash_streams.py RUN_SCENARIO_BINARY")
    binary = sys.argv[1]
    template = json.loads(subprocess.run([binary, "--template"], check=True,
                                         capture_output=True, text=True).stdout)
    template["duration_secs"] = 3600.0
    with tempfile.TemporaryDirectory() as tmp:
        for label, router, scheduling in CONFIGS:
            scenario = json.loads(json.dumps(template))
            scenario["router"] = router
            if scheduling is not None:
                scenario["policy"]["scheduling"] = scheduling
            path = os.path.join(tmp, label + ".json")
            with open(path, "w") as f:
                json.dump(scenario, f)
            out = subprocess.run([binary, path, "--hash-stream", "--hash-every", "60"],
                                 check=True, capture_output=True, text=True).stdout
            for line in out.splitlines():
                print(label, line)


if __name__ == "__main__":
    main()
