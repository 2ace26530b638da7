#!/usr/bin/env python3
"""Build the ipcp benchmark from source and run it.

    python3 perf/run.py --workload cold-2k --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --smoke          # every workload, three ops, all checks
    python3 perf/run.py --make-inputs    # write perf/inputs anew, with MANIFEST

Run from the root of an ipcp source tree.  The fixed inputs are checked
against perf/inputs/MANIFEST before anything runs.  See perf/README.md.
"""

import hashlib
import os
import subprocess
import sys

INPUTS = os.path.join("perf", "inputs")
MANIFEST = os.path.join(INPUTS, "MANIFEST")
EXE = os.path.join("_build", "default", "perf", "ipcp_perf.exe")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def input_files():
    top = sorted(f for f in os.listdir(INPUTS) if f.endswith(".f"))
    suite = sorted(f for f in os.listdir(os.path.join(INPUTS, "suite")) if f.endswith(".f"))
    return [os.path.join(INPUTS, f) for f in top] + [os.path.join(INPUTS, "suite", f) for f in suite]


def write_manifest():
    with open(MANIFEST, "w") as out:
        out.write("# sha256  bytes  file  (python3 perf/run.py --make-inputs writes this)\n")
        for path in input_files():
            out.write("%s  %d  %s\n" % (sha256(path), os.path.getsize(path), os.path.relpath(path, INPUTS)))


def check_manifest():
    with open(MANIFEST) as f:
        rows = [line.split() for line in f if line.strip() and not line.startswith("#")]
    listed = {os.path.join(INPUTS, name): digest for digest, _size, name in rows}
    present = set(input_files())
    for path in sorted(present | set(listed)):
        if path not in listed or path not in present or sha256(path) != listed[path]:
            return "input %s does not match perf/inputs/MANIFEST" % path
    return None


def commit():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # not a git checkout: name the source by its content
    h = hashlib.sha256()
    for top in ("lib", "bin", "perf"):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            if os.path.join("perf", "inputs") in base:
                continue
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".mll", "dune")):
                    with open(os.path.join(base, f), "rb") as src:
                        h.update(src.read())
    return "src-" + h.hexdigest()[:12]


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir(INPUTS)):
        print("perf/run.py: run from the root of an ipcp source tree", file=sys.stderr)
        return 2
    # compilers and the benchmark write temporary files inside the checkout
    tmp = os.path.join(os.getcwd(), ".perf-work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perf/ipcp_perf.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perf/run.py: build failed", file=sys.stderr)
        return 2
    if "--make-inputs" in argv:
        done = subprocess.run([EXE, "--make-inputs", "--inputs", INPUTS], env=env).returncode
        if done == 0:
            write_manifest()
        return done
    bad = check_manifest()
    if bad:
        print("perf/run.py: %s; regenerate with --make-inputs and review" % bad, file=sys.stderr)
        return 2
    env["IPCP_PERF_COMMIT"] = commit()
    return subprocess.run([EXE, "--inputs", INPUTS] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
