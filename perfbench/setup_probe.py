"""Set-up of one workload: import `urlab.cli` and build the input measure
with its public generator, then exit.

    python3 perfbench/setup_probe.py CONFIG.json

The benchmark times this whole process; it is what every `urlab` run pays
before its subcommand starts working.
"""

import json
import sys

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        gen = json.load(fh)["generator"]
    import urlab.cli  # noqa: F401  (the import every run pays)
    from urlab import geometry

    if gen["kind"] == "graph":
        profile = geometry.sawtooth_profile(gen["lam"], gen["period"])
        sigma = geometry.make_lipschitz_graph(
            gen["n"], gen["d"], profile, gen["lam"], gen["extent"],
            gen["spacing"])
    elif gen["kind"] == "cantor":
        sigma = geometry.make_cantor_set(gen["m"])
    else:
        sigma = geometry.make_plane_set(gen["n"], gen["d"], gen["extent"],
                                        gen["spacing"])
    print(len(sigma))
