"""Record the oracle workload's reference error columns.

Runs ``validate`` once for every (gamma, N) the oracle workload can draw and
writes the three error columns to ``oracle_reference.json``.  Rerun only
when the oracle's numbers are meant to change; the benchmark fails every
oracle op whose output differs from the file by more than ORACLE_RTOL.

    python3 bench/record_oracle_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    values = {}
    for n_modes in sorted(set(workloads.ORACLE_SCHEDULE)):
        for gamma in workloads.ORACLE_GAMMAS:
            status, text, err = workloads.call_cli(workloads.oracle_argv(gamma, n_modes))
            if status != 0:
                sys.exit(f"validate failed for gamma={gamma} N={n_modes}: {err}")
            row = workloads.parse_validate(text)
            values[workloads.oracle_key(gamma, n_modes)] = [float(x) for x in row[:3]]
            print(workloads.oracle_key(gamma, n_modes), row, flush=True)
    rows = [f'  {json.dumps(key)}: {json.dumps(vals)}' for key, vals in values.items()]
    with open(os.path.join(HERE, "oracle_reference.json"), "w") as fh:
        fh.write('{\n "columns": %s,\n "values": {\n%s\n }\n}\n'
                 % (json.dumps(list(workloads.ORACLE_COLUMNS)), ",\n".join(rows)))


if __name__ == "__main__":
    main()
