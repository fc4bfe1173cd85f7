#!/usr/bin/env python3
"""Build and run the mGBA end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload closure-d3 --seed 1 --seconds 20 --trace 0

The script builds perfbench/ (a Go module of its own that points the
mgba module at the repository root) into .bench_build/perfbench, keeping
every Go cache and temporary file under .bench_build, then runs the binary
with the same arguments from the repository root. The binary prints the
report; its last line is the JSON result. The script exits with the
binary's exit code, or with 2 when the build fails, printing no result.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    try:
        with open(os.path.join(root, "go.mod")) as f:
            if not f.read().startswith("module mgba\n"):
                raise OSError("not the mgba module")
    except OSError:
        sys.stderr.write("perfbench: run from the repository root (no mgba go.mod here)\n")
        return 2

    tmp = os.path.join(build, "tmp")
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + built.stdout)
        return 2

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        # subprocess.run kills and reaps the child on timeout or on any
        # exception, SystemExit from SIGTERM included.
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
