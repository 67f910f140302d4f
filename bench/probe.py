"""Set-up probe: one fresh interpreter doing a workload's set-up.

    python3 bench/probe.py WORKLOAD SEED

For ``cli`` the set-up is ``import barmodes``; for the library workloads it
is the import, input generation and one warm-up search.  The probe prints
``ready`` when done; the parent times it from spawn to that line.
"""

import sys


def main(workload, seed):
    if workload == "cli":
        import barmodes  # noqa: F401
    else:
        import workloads
        make = {"track": workloads.Track, "spectrum": workloads.Spectrum}
        make[workload](seed).warm_up()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
