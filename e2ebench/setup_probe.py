"""One set-up, timed in a fresh interpreter: import the library and
parse every input of a workload.

    python3 e2ebench/setup_probe.py INPUTS.json

INPUTS.json holds a list of ``[kind, text]`` pairs.  Prints one JSON
object ``{"import_s": ..., "parse_s": ..., "scaled_s": ...}``: the wall
times of the import and of the parse, and their sum scaled by the host
speed read during them (see ``hostspeed.py``).
"""

import json
import sys

import hostspeed
import library


def main(path):
    with open(path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    with hostspeed.Sampler() as sampler:
        t0 = sampler.stamp()
        lib = library.import_library()
        t1 = sampler.stamp()
        for kind, text in inputs:
            library.parse(lib, kind, text)
        t2 = sampler.stamp()
    print(json.dumps({"import_s": t1[0] - t0[0], "parse_s": t2[0] - t1[0],
                      "scaled_s": sampler.time(t0, t2)[1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
