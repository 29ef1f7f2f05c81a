"""Record the reference norms the ray-b2 and evolve-bc1 checks compare to.

    python3 perfbench/record_references.py

Runs the CLI once for every coupling a seed can draw, at both sizes, and
rewrites references.json.  Run it only at a commit whose numbers are
trusted: the checks then hold later commits to these values within a
relative 1e-8.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from workloads import (EVOLVE_BC1_COUPLINGS, RAY_B2_COUPLINGS, REFERENCES,
                       config_key, evolution_norms, evolve_bc1_config,
                       ray_b2_config, ray_norms)


def _cli(args: list, cwd: Path) -> None:
    subprocess.run([sys.executable, "-m", "alcove.cli", *args], cwd=cwd,
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    refs = {"ray-b2": {}, "evolve-bc1": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "config.json"
        for tiny in (False, True):
            for couplings in RAY_B2_COUPLINGS:
                cfg = ray_b2_config(couplings, tiny)
                cfg_path.write_text(json.dumps(cfg))
                _cli(["scatter", "--ray", "--config", str(cfg_path),
                      "--out", str(tmp / "ray.csv")], ROOT)
                refs["ray-b2"][config_key(cfg)] = {"norms": ray_norms(tmp)}
            for couplings in EVOLVE_BC1_COUPLINGS:
                cfg = evolve_bc1_config(couplings, tiny)
                cfg_path.write_text(json.dumps(cfg))
                _cli(["scatter", "--evolve", "--config", str(cfg_path),
                      "--out", str(tmp / "report.json")], ROOT)
                refs["evolve-bc1"][config_key(cfg)] = {"norms": evolution_norms(tmp)}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
